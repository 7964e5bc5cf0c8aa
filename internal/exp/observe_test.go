package exp

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/trace"
)

// TestTracingDoesNotPerturbSimulation runs the same workload bare and with
// the full observability stack attached — one tracer feeding a JSONL sink
// and an occupancy sink — and requires bit-identical execution time and event counts. The
// trace layer must be strictly observational.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const name = "fft"
	run := func(observe func(*core.Machine)) *Run {
		cfg := goldenConfig()
		r, err := RunAppObserved(name, cfg, apps.Params{Scale: goldenScales[name]}, true, 0, observe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r
	}

	bare := run(nil)

	var buf bytes.Buffer
	var tr *trace.Tracer
	occ := trace.NewOccupancy(10000)
	traced := run(func(m *core.Machine) {
		tr = trace.New(trace.NewJSONLSink(&buf), occ)
		m.SetTracer(tr)
	})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	traced.Report.AddOccupancy(occ)

	if bare.Report.Elapsed != traced.Report.Elapsed {
		t.Errorf("elapsed changed under tracing: %d vs %d", bare.Report.Elapsed, traced.Report.Elapsed)
	}
	if bare.Report.Events != traced.Report.Events {
		t.Errorf("events executed changed under tracing: %d vs %d",
			bare.Report.Events, traced.Report.Events)
	}

	// The traced run must still match the recorded golden digest.
	buf2, err := os.ReadFile(filepath.Join("testdata", "golden_digest.json"))
	if err != nil {
		t.Fatalf("missing golden digests: %v", err)
	}
	want := map[string]goldenDigest{}
	if err := json.Unmarshal(buf2, &want); err != nil {
		t.Fatal(err)
	}
	w, ok := want[name]
	if !ok {
		t.Fatalf("%s: no golden digest recorded", name)
	}
	got := goldenDigest{
		Elapsed:  uint64(traced.Report.Elapsed),
		Executed: traced.Report.Events,
	}
	if got != w {
		t.Errorf("%s traced digest %+v, want %+v", name, got, w)
	}

	// And the trace itself must be substantial and well-formed.
	evs, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("traced run produced no events")
	}
	kinds := map[trace.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, k := range []trace.Kind{
		trace.KindMsgSend, trace.KindMsgRecv, trace.KindHandler,
		trace.KindMissIssue, trace.KindMissDone, trace.KindFill, trace.KindMemRead,
	} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
	if kinds[trace.KindMsgSend] != kinds[trace.KindMsgRecv] {
		t.Errorf("unbalanced message events: %d sends, %d recvs",
			kinds[trace.KindMsgSend], kinds[trace.KindMsgRecv])
	}

	// The occupancy sink must have produced curves consistent with the run.
	if n := len(traced.Report.MemOccSeries); n == 0 {
		t.Error("no memory occupancy series")
	}
	if n := len(traced.Report.PPOccSeries); n == 0 {
		t.Error("no PP occupancy series")
	}
	if traced.Report.OccWindow != 10000 {
		t.Errorf("OccWindow = %d, want 10000", traced.Report.OccWindow)
	}
	for i, v := range traced.Report.MemOccSeries {
		if v < 0 || v > 1 {
			t.Errorf("mem occupancy window %d out of range: %g", i, v)
		}
	}

	// A Chrome-format trace of the same run must be valid and carry the same
	// number of events (same simulation, different encoding).
	var cbuf bytes.Buffer
	var ctr *trace.Tracer
	chromed := run(func(m *core.Machine) {
		ctr = trace.New(trace.NewChromeSink(&cbuf))
		m.SetTracer(ctr)
	})
	if err := ctr.Close(); err != nil {
		t.Fatal(err)
	}
	if chromed.Report.Elapsed != bare.Report.Elapsed {
		t.Errorf("elapsed changed under chrome tracing: %d vs %d",
			chromed.Report.Elapsed, bare.Report.Elapsed)
	}
	ct, err := trace.ReadChrome(&cbuf)
	if err != nil {
		t.Fatalf("decoding chrome trace: %v", err)
	}
	if len(ct.TraceEvents) != len(evs) {
		t.Errorf("chrome trace has %d events, jsonl had %d", len(ct.TraceEvents), len(evs))
	}
}

// firstEmit is a sink that records how many events the engine had executed
// when the tracer handed it its first event.
type firstEmit struct {
	eng  interface{ ExecutedEvents() uint64 }
	seen bool
	at   uint64
}

func (s *firstEmit) Emit(trace.Event) {
	if !s.seen {
		s.seen, s.at = true, s.eng.ExecutedEvents()
	}
}

func (s *firstEmit) Close() error { return nil }

// TestShardedTraceIsOneTracer pins the one tracing path on the sharded
// engine, under both sync schemes: every unit emits straight into the
// machine's tracer while the run is in flight (the first event reaches the
// sink before the engine's last dispatch), the JSONL trace is byte-identical
// across runs at GOMAXPROCS 1 and 4, and it holds the seq run's events,
// ids and parents aside.
func TestShardedTraceIsOneTracer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(engine arch.EngineKind, sync arch.EngineSync) []byte {
		t.Helper()
		cfg := goldenConfig()
		cfg.Engine, cfg.EngineSync = engine, sync
		var buf bytes.Buffer
		first := &firstEmit{}
		var tr *trace.Tracer
		r, err := RunAppObserved("fft", cfg, apps.Params{Scale: goldenScales["fft"]}, true, 0, func(m *core.Machine) {
			first.eng = m.Eng
			tr = trace.New(trace.NewJSONLSink(&buf), first)
			m.SetTracer(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if last := r.Report.Events; !first.seen || first.at >= last {
			t.Errorf("%v/%v: first event reached the tracer after %d of %d dispatches", engine, sync, first.at, last)
		}
		return buf.Bytes()
	}
	// multiset counts a trace's events with their causal ids cleared.
	multiset := func(b []byte) map[trace.Event]int {
		t.Helper()
		evs, err := trace.ReadJSONL(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		n := map[trace.Event]int{}
		for _, ev := range evs {
			ev.ID, ev.Parent = 0, 0
			n[ev]++
		}
		return n
	}
	want := multiset(run(arch.EngineSeq, arch.EngineSyncBarrier))
	for _, sync := range []arch.EngineSync{arch.EngineSyncBarrier, arch.EngineSyncWatermark} {
		var traces [][]byte
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			traces = append(traces, run(arch.EngineSharded, sync))
			runtime.GOMAXPROCS(prev)
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%v: trace at GOMAXPROCS 1 (%d bytes) differs from GOMAXPROCS 4 (%d bytes)", sync, len(traces[0]), len(traces[1]))
		}
		if got := multiset(traces[0]); !maps.Equal(got, want) {
			t.Errorf("%v: %d distinct events, seq has %d: not seq's events", sync, len(got), len(want))
		}
	}
}
