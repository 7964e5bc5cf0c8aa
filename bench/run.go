package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/trace"
)

// benchProcs is the GOMAXPROCS every measured process runs at, so results
// from hosts with more CPUs stay comparable with the 2-CPU reference host.
const benchProcs = 2

// setupN is how many set-ups the setup_s median is taken over.
const setupN = 25

// options are what the command line fixes for one run of one workload.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // spans and CPU profiles land here
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// FlashFirst is the leg order of the first timed pair, chosen by the
	// seed; the order alternates from there.
	FlashFirst bool     `json:"flash_first"`
	Reps       int      `json:"reps"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// Unvalidated is set where the repo holds no paper value to compare the
	// simulated slowdown with, so no paper_gap_pts is given.
	Unvalidated bool              `json:"unvalidated"`
	E2E         map[string]dist   `json:"end_to_end,omitempty"`
	Layers      map[string]metric `json:"per_layer,omitempty"`
}

func (r *runner) run(o options) (*runResult, error) {
	w := r.w
	res := &runResult{
		Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Host: startHost(), FlashFirst: o.seed%2 == 0, Unvalidated: !w.HasPaper,
	}
	var err error
	if o.traced {
		err = r.runTraced(o, res)
	} else {
		err = r.runTimed(o, res)
	}
	if err != nil {
		return nil, err
	}
	res.Host.finish()
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	if o.traced {
		if err := r.rec.write(o.outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runTimed measures the end-to-end metrics with every observer off.
func (r *runner) runTimed(o options, res *runResult) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	var wall, cpu, rss []float64
	e2e := map[string]dist{}
	if r.w.Sweep {
		outs, err := r.repeatSweeps(budget)
		if err != nil {
			return err
		}
		for _, s := range outs {
			wall = append(wall, s.WallS)
			cpu = append(cpu, s.use.cpu().Seconds())
			rss = append(rss, float64(s.use.maxRSSKB)/1024)
		}
		e2e["points_per_s"] = summarize("1/s", []float64{sweepPoints / median(wall)})
	} else {
		warm, timed, err := r.repeatPairs(budget, res.FlashFirst)
		if err != nil {
			return err
		}
		for _, p := range timed {
			wall = append(wall, p.wall().Seconds())
			cpu = append(cpu, p.cpu().cpu().Seconds())
			rss = append(rss, float64(p.peakRSSKB())/1024)
		}
		refs := float64(warm.flash.report.Refs + warm.ideal.report.Refs)
		e2e["sim_krefs_per_s"] = summarize("krefs/s", []float64{refs / 1e3 / median(wall)})
		if r.w.HasPaper {
			e2e["paper_gap_pts"] = summarize("pct_pts", []float64{math.Abs(warm.slowdownPct() - r.w.PaperPct)})
		}
	}
	setups, err := r.setupSamples(setupN)
	if err != nil {
		return err
	}
	res.Reps = len(wall)
	e2e["wall_s"] = summarize("s", wall)
	e2e["cpu_s"] = summarize("s", cpu)
	e2e["peak_rss_mb"] = summarize("MB", rss)
	e2e["setup_s"] = summarize("s", setups)
	e2e["failed_frac"] = summarize("frac", []float64{float64(r.failed) / float64(r.attempted)})
	res.E2E = e2e
	return nil
}

// countSink is the in-memory trace sink of the traced legs: it counts
// events, which is all the benchmark reads from the event trace.
type countSink struct{ n uint64 }

func (s *countSink) Emit(trace.Event) { s.n++ }
func (s *countSink) Close() error     { return nil }

// runTraced produces the per-layer metrics: stage spans from a few untraced
// pairs, counts and CPU shares from traced and profiled pairs, one leg per
// backend axis, the probes, and on the sweep workload the cold and profiled
// sweeps. On explore_sweep the pairs run at the sweep's base point.
func (r *runner) runTraced(o options, res *runResult) error {
	w := r.w
	L := map[string]float64{}
	budget := time.Duration(o.seconds * float64(time.Second))

	warm, timed, err := r.repeatPairs(budget/4, res.FlashFirst)
	if err != nil {
		return err
	}
	res.Reps = len(timed)
	stageMS := func(pick func(*pair) time.Duration) float64 {
		var d []time.Duration
		for _, p := range timed {
			d = append(d, pick(p))
		}
		return ns(medianDur(d)) / 1e6
	}
	both := func(st string) func(*pair) time.Duration {
		return func(p *pair) time.Duration { return p.flash.stage[st] + p.ideal.stage[st] }
	}
	flashRunMS := stageMS(func(p *pair) time.Duration { return p.flash.stage[stRun] })
	L["core.new_ms"] = stageMS(func(p *pair) time.Duration { return p.flash.stage[stNew] })
	L["apps.build_ms"] = stageMS(func(p *pair) time.Duration { return p.flash.stage[stBuild] })
	L["workload.run_s"] = flashRunMS / 1e3
	L["ideal.run_s"] = stageMS(func(p *pair) time.Duration { return p.ideal.stage[stRun] }) / 1e3
	L["apps.verify_ms"] = stageMS(both(stVerify))
	L["core.check_coherence_ms"] = stageMS(both(stCoherent))
	L["stats.collect_ms"] = stageMS(both(stCollect))
	L["core.cold_setup_ms"] = ns(warm.flash.setup()) / 1e6
	L["bench.span_coverage"] = coverage(timed)
	var units []unitCost
	for _, p := range timed {
		h := p.flash.host
		h.AllocBytes += p.ideal.host.AllocBytes
		h.GCCycles += p.ideal.host.GCCycles
		h.GCCPUNS += p.ideal.host.GCCPUNS
		units = append(units, unitCost{p.cpu(), h})
	}

	// Traced pairs: tracer, metrics registry and engine self-profiling on,
	// under the CPU profile unless a profiled sweep supplies the shares.
	profPath := filepath.Join(o.outDir, w.Name+".cpu.pprof")
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	sinks := map[*core.Machine]*countSink{}
	observe := func(m *core.Machine) {
		sinks[m] = &countSink{}
		m.SetTracer(trace.New(sinks[m]))
		m.EnableMetrics(metrics.NewRegistry())
	}
	var profFile *os.File
	if !w.Sweep {
		if profFile, err = os.Create(profPath); err != nil {
			return err
		}
		defer profFile.Close()
		if err := pprof.StartCPUProfile(profFile); err != nil {
			return err
		}
	}
	var tracedRun []time.Duration
	var traced *pair
	for i := 0; i < profiledPairs(o.seconds); i++ {
		if traced, err = r.runPair(-2, true, observe); err != nil {
			pprof.StopCPUProfile()
			return err
		}
		r.checkRepeat(warm, traced, -2)
		tracedRun = append(tracedRun, traced.flash.stage[stRun])
	}
	if !w.Sweep {
		pprof.StopCPUProfile()
		if err := profFile.Close(); err != nil {
			return err
		}
	}
	L["trace.overhead_pct"] = 100 * (ns(medianDur(tracedRun))/1e6/flashRunMS - 1)
	counts(L, traced, sinks[traced.flash.m].n)

	if err := r.axes(L, warm, flashRunMS); err != nil {
		return err
	}

	probes, err := runProbes(time.Duration(o.seconds*float64(time.Second)/100), o.seed)
	if err != nil {
		return err
	}
	for k, v := range probes {
		L[k] = v
	}
	var reads, writes float64
	for _, n := range traced.flash.m.Nodes {
		reads += float64(n.CPU.Stats.Reads + n.CPU.Stats.RMWs)
		writes += float64(n.CPU.Stats.Writes)
	}
	runNS := flashRunMS * 1e6
	L["workload.est_share"] = (reads*L["workload.probe_read_rt_ns"] + writes*L["workload.probe_write_ns"]) / runNS
	L["ppsim.est_share"] = L["magic.handlers"] * L["ppsim.probe_handler_ns"] / runNS
	L["sim.est_share"] = L["sim.events"] * L["sim.probe_event_ns"] / runNS

	if w.Sweep {
		outs, err := r.sweepLayers(L, budget/4, profPath)
		if err != nil {
			return err
		}
		units = units[:0] // the unit of work is the sweep, not the base-point pair
		for _, s := range outs {
			units = append(units, unitCost{s.use, s.Host})
		}
	}
	hostCosts(L, units)

	shares, err := profileShares(profPath)
	if err != nil {
		return err
	}
	for k, v := range shares {
		L[k] = v
	}

	res.Layers = map[string]metric{}
	for _, d := range layers {
		res.Layers[d.Name] = metric{Value: L[d.Name], Unit: d.Unit}
		delete(L, d.Name)
	}
	for k := range L {
		return fmt.Errorf("bench: metric %q is not in the catalog", k)
	}
	return nil
}

// unitCost is what one unit of work cost the process and the Go runtime.
type unitCost struct {
	use  usage
	host metrics.HostDelta
}

// hostCosts fills the process and runtime metrics with medians over units.
func hostCosts(L map[string]float64, units []unitCost) {
	col := func(pick func(unitCost) float64) float64 {
		v := make([]float64, len(units))
		for i, u := range units {
			v[i] = pick(u)
		}
		return median(v)
	}
	L["host.sys_s"] = col(func(u unitCost) float64 { return u.use.sys.Seconds() })
	L["host.minor_faults"] = col(func(u unitCost) float64 { return float64(u.use.minFlt) })
	L["host.alloc_mb"] = col(func(u unitCost) float64 { return float64(u.host.AllocBytes) / (1 << 20) })
	L["host.gc_cycles"] = col(func(u unitCost) float64 { return float64(u.host.GCCycles) })
	L["host.gc_cpu_frac"] = col(func(u unitCost) float64 { return float64(u.host.GCCPUNS) / ns(u.use.cpu()) })
}

// profiledPairs is how many traced pairs the CPU profile covers: one on a
// short run, three when the run is long enough to afford them.
func profiledPairs(seconds float64) int {
	return int(math.Max(1, math.Min(3, seconds/15)))
}

// counts fills the exact simulated metrics from the traced pair.
func counts(L map[string]float64, p *pair, traceEvents uint64) {
	f := p.flash.report
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	L["sim.events"] = float64(p.flash.events)
	L["sim.events_per_ref"] = per(float64(p.flash.events), float64(f.Refs))
	L["workload.refs"] = float64(f.Refs)
	L["cpu.miss_rate"] = f.MissRate
	L["cpu.writebacks_per_kref"] = per(1e3*float64(f.Writebacks), float64(f.Refs))
	L["cpu.read_stall_frac"] = f.Breakdown.Read
	L["magic.handlers"] = float64(f.HandlerInvocations)
	L["magic.handlers_per_miss"] = f.HandlersPerMiss
	L["magic.naks"] = float64(f.Naks)
	L["magic.avg_pp_occ"] = f.AvgPPOcc
	L["magic.max_pp_occ"] = f.MaxPPOcc
	L["magic.spec_useless_frac"] = f.SpecUseless
	L["ppsim.pairs_per_handler"] = f.PairsPerHandler
	L["ppsim.mdc_accesses"] = float64(f.MDCAccesses)
	L["ppsim.mdc_miss_rate"] = f.MDCMissRate
	L["memsys.accesses"] = float64(f.MemAccesses)
	L["memsys.avg_occ"] = f.AvgMemOcc
	L["memsys.max_occ"] = f.MaxMemOcc
	L["network.msgs"] = float64(f.NetMsgs)
	L["network.msgs_per_miss"] = per(float64(f.NetMsgs), float64(f.Misses))
	L["core.flash_cycles"] = float64(f.Elapsed)
	L["ideal.cycles"] = float64(p.ideal.report.Elapsed)
	L["core.slowdown_pct"] = p.slowdownPct()
	L["trace.events"] = float64(traceEvents)
}

// axes runs one FLASH leg per alternative backend and reports its World.Run
// time over the default's. Host-only backends must simulate the same cycles.
func (r *runner) axes(L map[string]float64, ref *pair, flashRunMS float64) error {
	profiled := func(m *core.Machine) { m.Eng.EnableProfiling() }
	for _, ax := range []struct {
		name    string
		mod     func(*arch.Config)
		observe func(*core.Machine)
		exact   bool
	}{
		{"sim.sharded_barrier_w2_ratio", func(c *arch.Config) {
			c.Engine, c.EngineSync = arch.EngineSharded, arch.EngineSyncBarrier
		}, profiled, true},
		{"sim.sharded_watermark_w2_ratio", func(c *arch.Config) {
			c.Engine, c.EngineSync = arch.EngineSharded, arch.EngineSyncWatermark
		}, nil, true},
		{"ppsim.interp_ratio", func(c *arch.Config) { c.PPDispatch = arch.PPDispatchInterp }, nil, true},
		{"core.sampled_ratio", func(c *arch.Config) { c.Sample = arch.DefaultSampleSpec() }, nil, false},
	} {
		cfg := r.w.config(arch.KindFLASH)
		ax.mod(&cfg)
		l, err := r.runLeg(ax.name, cfg, 0, -3, ax.observe)
		if err != nil {
			return err
		}
		L[ax.name] = ns(l.stage[stRun]) / 1e6 / flashRunMS
		full := ref.flash.report.Elapsed
		if ax.exact {
			r.check(l.report.Elapsed == full, "%s: %d cycles, default engine %d", ax.name, l.report.Elapsed, full)
		} else if s := l.report.Sampled; s != nil {
			L["stats.sampled_err_pct"] = 100 * math.Abs(float64(s.ElapsedEst)-float64(full)) / float64(full)
		}
		if p := l.m; p != nil && p.Eng.Profile() != nil {
			// The barrier leg pays for the engine's self-profiling to get
			// this count; its ratio includes that cost.
			L["sim.sync_ops_per_kevent"] = 1e3 * float64(p.Eng.Profile().SyncOps()) / float64(l.events)
		}
	}
	return nil
}

// sweepLayers runs the warm sweeps, one cold sweep and one profiled warm
// sweep, and fills the exp.* metrics. It returns the warm sweeps.
func (r *runner) sweepLayers(L map[string]float64, budget time.Duration, profPath string) ([]*sweepOut, error) {
	warm, err := r.repeatSweeps(budget)
	if err != nil {
		return nil, err
	}
	cold, err := runSweep(r.w.sweepSpec(false))
	if err != nil {
		return nil, err
	}
	r.check(cold.Digest == warm[0].Digest, "cold sweep result %s differs from warm %s", cold.Digest, warm[0].Digest)
	spec := r.w.sweepSpec(true)
	spec.Profile = profPath
	if _, err := runSweep(spec); err != nil {
		return nil, err
	}
	var walls []float64
	for _, s := range warm {
		walls = append(walls, s.WallS)
	}
	last := warm[len(warm)-1]
	L["exp.cold_wall_s"] = cold.WallS
	L["exp.warm_over_cold"] = median(walls) / cold.WallS
	L["exp.cold_peak_rss_mb"] = float64(cold.use.maxRSSKB) / 1024
	L["exp.pool_hits"], L["exp.pool_builds"] = float64(last.PoolHits), float64(last.PoolBuilds)
	L["exp.cache_hits"], L["exp.cache_misses"] = float64(last.CacheHits), float64(last.CacheMisses)
	L["exp.points"] = float64(last.Points)
	return warm, nil
}
