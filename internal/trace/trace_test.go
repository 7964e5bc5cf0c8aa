package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Active() {
		t.Fatal("nil tracer reports active")
	}
	if id := tr.NewID(); id != 0 {
		t.Fatalf("nil tracer NewID = %d, want 0", id)
	}
	tr.Emit(Event{Kind: KindFill}) // must not panic
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerIDsAndEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	if !tr.Active() {
		t.Fatal("tracer with sink not active")
	}
	if a, b := tr.NewID(), tr.NewID(); a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", a, b)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 100, Node: 3, Kind: KindMissIssue, Addr: 0x2000, ID: 1, Name: "GET"},
		{Cycle: 140, Node: 0, Kind: KindHandler, Dur: 12, ID: 2, Parent: 1, Name: "h_get_home"},
		{Cycle: 190, Node: 3, Kind: KindMissDone, Addr: 0x2000, ID: 1, Parent: 2},
		{Cycle: 200, Node: 3, Kind: KindMemRead, Dur: 29},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	for _, ev := range events {
		tr.Emit(ev)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestKindJSONNames(t *testing.T) {
	buf, err := json.Marshal(KindHandler)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `"handler"` {
		t.Fatalf("KindHandler marshals to %s", buf)
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"mem-read"`), &k); err != nil || k != KindMemRead {
		t.Fatalf("unmarshal mem-read: %v, %v", k, err)
	}
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestKindUnmarshalJSON accepts each defined kind by name or number and
// rejects everything else, so ReadJSONL never returns an undefined kind.
func TestKindUnmarshalJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{`"msg-send"`, KindMsgSend, true},
		{`"mem-write"`, KindMemWrite, true},
		{`0`, KindMsgSend, true},
		{`10`, KindMemWrite, true},
		{`11`, 0, false},
		{`99`, 0, false},
		{`255`, 0, false},
		{`256`, 0, false},
		{`-1`, 0, false},
		{`"Kind(99)"`, 0, false},
		{`""`, 0, false},
		{`null`, 0, false},
		{`true`, 0, false},
	} {
		var k Kind
		err := json.Unmarshal([]byte(tc.in), &k)
		if (err == nil) != tc.ok || (tc.ok && k != tc.want) {
			t.Errorf("%s: got %v, %v; want %v, ok=%v", tc.in, k, err, tc.want, tc.ok)
		}
	}
	if _, err := ReadJSONL(strings.NewReader(`{"c":1,"n":0,"k":99}` + "\n")); err == nil {
		t.Error("ReadJSONL accepted kind 99")
	}
}

func TestChromeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	tr := New(sink)
	tr.Emit(Event{Cycle: 10, Node: 1, Kind: KindHandler, Dur: 25, Name: "h_get_home", ID: 7, Parent: 3})
	tr.Emit(Event{Cycle: 40, Node: 2, Kind: KindMsgSend, Addr: 0x80, Name: "PUT"})
	tr.Emit(Event{Cycle: 50, Node: 1, Kind: KindMemWrite, Dur: 29})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// The document must be plain JSON (Perfetto-loadable).
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}

	ct, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 3 {
		t.Fatalf("decoded %d trace events, want 3", len(ct.TraceEvents))
	}
	h := ct.TraceEvents[0]
	if h.Ph != "X" || h.Name != "h_get_home" || h.TS != 10 || h.Dur != 25 || h.PID != 1 {
		t.Fatalf("handler span decoded wrong: %+v", h)
	}
	if h.Args["id"] != float64(7) || h.Args["parent"] != float64(3) {
		t.Fatalf("handler args lost causal ids: %+v", h.Args)
	}
	if i := ct.TraceEvents[1]; i.Ph != "i" || i.Name != "PUT" || i.Cat != "msg-send" {
		t.Fatalf("instant decoded wrong: %+v", i)
	}
	if m := ct.TraceEvents[2]; m.Ph != "X" || m.TID != 1 || m.Dur != 29 {
		t.Fatalf("memory span decoded wrong: %+v", m)
	}
}

func TestChromeEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := New(NewChromeSink(&buf)).Close(); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("empty trace decoded %d events", len(ct.TraceEvents))
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.Count != 7 || h.Sum != 1110 || h.Min != 0 || h.Max != 1000 {
		t.Fatalf("summary wrong: %+v", h)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 100 -> 7; 1000 -> 10.
	wantBuckets := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 7: 1, 10: 1}
	for i, n := range h.Buckets {
		if n != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
	if m := h.Mean(); m < 158.5 || m > 158.6 {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62) // far beyond the last bucket boundary
	if h.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("overflow not clamped to last bucket: %+v", h.Buckets)
	}
}

func TestHistogramQuantileAndMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 90; i++ {
		a.Observe(10)
	}
	for i := 0; i < 10; i++ {
		b.Observe(1000)
	}
	a.Merge(&b)
	if a.Count != 100 || a.Min != 10 || a.Max != 1000 {
		t.Fatalf("merge wrong: %+v", a)
	}
	if q := a.Quantile(0.5); q < 8 || q > 16 {
		t.Errorf("p50 = %v, want ~10", q)
	}
	if q := a.Quantile(0.99); q < 512 || q > 1000 {
		t.Errorf("p99 = %v, want in the 1000 bucket", q)
	}
	if q := a.Quantile(0); q != 10 {
		t.Errorf("q0 = %v, want min", q)
	}
	if q := a.Quantile(1); q != 1000 {
		t.Errorf("q1 = %v, want max", q)
	}
	if !strings.Contains(a.String(), "n=100") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(27)
	h.Observe(143)
	buf, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip changed histogram:\n got %+v\nwant %+v", got, h)
	}
}

func TestTimeSeries(t *testing.T) {
	s := TimeSeries{Window: 100}
	s.Add(10, 20)   // window 0
	s.Add(90, 20)   // splits: 10 in window 0, 10 in window 1
	s.Add(350, 400) // windows 3..7: 50,100,100,100,50
	s.Add(900, 0)   // nothing, not even an empty window
	want := []uint64{30, 10, 0, 50, 100, 100, 100, 50}
	if len(s.Busy) != len(want) {
		t.Fatalf("busy = %v, want %v", s.Busy, want)
	}
	for i := range want {
		if s.Busy[i] != want[i] {
			t.Fatalf("busy = %v, want %v", s.Busy, want)
		}
	}
	f := s.Fractions(1)
	if f[4] != 1.0 || f[0] != 0.3 {
		t.Fatalf("fractions = %v", f)
	}
	if (&TimeSeries{Window: 100}).Fractions(1) != nil {
		t.Fatal("empty series produced fractions")
	}
}

// TestOccupancySink bins handler spans into PP and memory reservations
// into Mem, summed over nodes, and ignores every other kind and every
// zero-length span (the idealized controller's handlers).
func TestOccupancySink(t *testing.T) {
	o := NewOccupancy(100)
	for _, ev := range []Event{
		{Cycle: 10, Dur: 30, Node: 0, Kind: KindHandler},
		{Cycle: 90, Dur: 20, Node: 1, Kind: KindHandler},
		{Cycle: 250, Node: 1, Kind: KindHandler},
		{Cycle: 0, Dur: 24, Node: 0, Kind: KindMemRead},
		{Cycle: 180, Dur: 24, Node: 1, Kind: KindMemWrite},
		{Cycle: 400, Dur: 50, Node: 1, Kind: KindMsgSend},
		{Cycle: 500, Dur: 50, Node: 1, Kind: KindFill},
	} {
		o.Emit(ev)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := o.PP.Busy, []uint64{40, 10}; !slices.Equal(got, want) {
		t.Errorf("PP busy = %v, want %v", got, want)
	}
	if got, want := o.Mem.Busy, []uint64{24, 20, 4}; !slices.Equal(got, want) {
		t.Errorf("Mem busy = %v, want %v", got, want)
	}
	if got, want := o.PP.Fractions(2), []float64{0.2, 0.05}; !slices.Equal(got, want) {
		t.Errorf("PP fractions over 2 nodes = %v, want %v", got, want)
	}
	if NewOccupancy(0).Mem.Window != 1 {
		t.Error("a zero window is not raised to 1")
	}
}

// closeSink records its events and fails Close with err.
type closeSink struct {
	Buffer
	closed bool
	err    error
}

func (s *closeSink) Close() error { s.closed = true; return s.err }

// TestTracerFansOutToEverySink hands each event to every sink in order and
// closes every sink, joining their errors, even after one fails.
func TestTracerFansOutToEverySink(t *testing.T) {
	errA, errB := errors.New("a failed"), errors.New("b failed")
	a, b, c := &closeSink{err: errA}, &closeSink{}, &closeSink{err: errB}
	tr := New(a, b, c)
	if !tr.Active() {
		t.Fatal("a tracer with sinks is not active")
	}
	evs := []Event{{Cycle: 1, Kind: KindMsgSend}, {Cycle: 2, Kind: KindMsgRecv}}
	for _, ev := range evs {
		tr.Emit(ev)
	}
	for i, s := range []*closeSink{a, b, c} {
		if !slices.Equal(s.Events, evs) {
			t.Errorf("sink %d got %v, want %v", i, s.Events, evs)
		}
	}
	err := tr.Close()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("Close = %v, want both sink errors", err)
	}
	if !a.closed || !b.closed || !c.closed {
		t.Errorf("closed = %v %v %v, want every sink closed", a.closed, b.closed, c.closed)
	}
	if New().Active() {
		t.Error("a tracer with no sinks is active")
	}
}
