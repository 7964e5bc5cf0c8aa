package exp

import (
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
)

// TestMetricsDoNotPerturbSimulation is the non-perturbation proof promised
// by DESIGN.md §12: running with a metrics registry attached (which also
// turns on engine self-profiling) yields cycle counts and event counts
// bit-identical to the recorded golden digests, on both engines and both PP
// dispatch backends. Metrics are host-side observation only — any
// divergence here means instrumentation leaked into simulated behaviour.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want := readGolden(t, "golden_digest.json")
	const app = "fft"
	for _, eng := range []arch.EngineKind{arch.EngineSeq, arch.EngineSharded} {
		for _, disp := range []arch.PPDispatch{arch.PPDispatchInterp, arch.PPDispatchCompiled} {
			cfg := goldenConfig()
			cfg.Engine = eng
			cfg.PPDispatch = disp
			reg := metrics.NewRegistry()
			r, err := RunAppObserved(app, cfg, apps.Params{Scale: goldenScales[app]}, true, 0, func(m *core.Machine) {
				m.EnableMetrics(reg)
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", eng, disp, err)
			}
			got := goldenDigest{
				Elapsed:  uint64(r.Report.Elapsed),
				Executed: r.Report.Events,
			}
			if got != want[app] {
				t.Errorf("%v/%v: metrics-enabled digest %+v, want %+v (instrumentation perturbed the simulation)",
					eng, disp, got, want[app])
			}

			// The registry must agree with the simulation's own accounting.
			snap := reg.Snapshot()
			if c, ok := snap.Gauges["flash_cycles"]; !ok || uint64(c) != got.Elapsed {
				t.Errorf("%v/%v: flash_cycles gauge = %d, want %d", eng, disp, c, got.Elapsed)
			}
			if ev, ok := snap.Counters["flashsim_sim_events_total"]; !ok || ev != got.Executed {
				t.Errorf("%v/%v: sim_events counter = %d, want %d", eng, disp, ev, got.Executed)
			}
		}
	}
}

// TestMetricsProfileShape checks the engine-profile series published for a
// sharded run: per-shard event counters must sum to the engine total, and
// every shard must have published a window-execution time series.
func TestMetricsProfileShape(t *testing.T) {
	cfg := goldenConfig()
	cfg.Engine = arch.EngineSharded
	reg := metrics.NewRegistry()
	r, err := RunAppObserved("fft", cfg, apps.Params{Scale: goldenScales["fft"]}, true, 0, func(m *core.Machine) {
		m.EnableMetrics(reg)
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var perShard uint64
	shards := 0
	for id, v := range snap.Counters {
		if len(id) > 28 && id[:28] == "flashsim_engine_events_total" {
			perShard += v
			shards++
		}
	}
	if shards != cfg.Nodes {
		t.Errorf("per-shard event series for %d shards, want %d", shards, cfg.Nodes)
	}
	if total := r.Report.Events; perShard != total {
		t.Errorf("per-shard events sum %d != engine total %d", perShard, total)
	}
	if _, ok := snap.Counters[`flashsim_engine_run_ns_total{engine="sharded"}`]; !ok {
		t.Error("missing flashsim_engine_run_ns_total{engine=\"sharded\"}")
	}
}

// TestProfileAttribution pins the acceptance bar for the engine's
// self-profile on an application run (what `flashsim -engine sharded
// -metrics` prints): the four phases {window execution, barrier wait, outbox
// drain, merge} must account for at least 95% of total engine wall time —
// the chained-timestamp design leaves no systematic gaps.
func TestProfileAttribution(t *testing.T) {
	cfg := Options{}.baseConfig(16)
	cfg.Engine = arch.EngineSharded
	var m *core.Machine
	r, err := RunAppObserved("fft", cfg, apps.Params{Procs: 16, Scale: 256}, true, 0, func(mm *core.Machine) {
		m = mm
		m.EnableMetrics(metrics.NewRegistry())
	})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Eng.Profile()
	if p == nil {
		t.Fatal("no engine profile collected")
	}
	if cov := p.Coverage(); cov < 0.95 {
		t.Errorf("phase attribution covers %.1f%% of engine wall time, want >= 95%%", 100*cov)
	}
	var shardEvents uint64
	for i := range p.Shards {
		s := &p.Shards[i]
		shardEvents += s.Executed
		if s.EmptyWindows > s.Windows {
			t.Errorf("shard %d: empty windows %d > windows %d", i, s.EmptyWindows, s.Windows)
		}
	}
	if total := r.Report.Events; shardEvents != total {
		t.Errorf("shard events sum %d != engine total %d", shardEvents, total)
	}
	out := p.String()
	for _, want := range []string{"window exec", "barrier wait", "outbox drain", "merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
