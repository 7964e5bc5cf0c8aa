package main

import "flashsim/internal/arch"

// workloadDef is one fixed simulator input the benchmark runs. The apps take no
// seed, so app/procs/scale/cache fix the simulated work exactly; -seed only
// picks the leg order and the probes' address streams.
type workloadDef struct {
	Name  string
	Why   string // one line, mirrored in BENCHMARK.json
	App   string
	Procs int
	Scale int // paper-size divisor
	Cache int // processor cache bytes
	Mem   int // memory bytes per node
	// PaperPct is the paper's Fig 4.1 FLASH-vs-ideal slowdown recorded in
	// EXPERIMENTS.md; HasPaper is false where the repo holds no reference.
	PaperPct float64
	HasPaper bool
	// Sweep marks the design-space workload: the unit of work is one
	// exp.Explore call in a fresh process instead of one FLASH+ideal pair.
	Sweep bool
}

// workloads are chosen so each stresses layers the others bypass; see
// README.md for the full argument.
var workloads = []workloadDef{
	{
		Name: "mp3d_miss", App: "mp3d", Procs: 16, Scale: 2, Cache: 1 << 20, Mem: 8 << 20,
		PaperPct: 25, HasPaper: true,
		Why: "25% miss rate: magic, ppsim, network and the event engine do the work; the ideal leg bypasses magic and ppsim",
	},
	{
		Name: "lu_hit", App: "lu", Procs: 16, Scale: 2, Cache: 1 << 20, Mem: 8 << 20,
		PaperPct: 2, HasPaper: true,
		Why: "0.2% miss rate: the workload coroutine handshake and the cpu hit path are nearly all of it; magic, ppsim and network idle",
	},
	{
		Name: "radix_smallcache", App: "radix", Procs: 16, Scale: 4, Cache: 4 << 10, Mem: 8 << 20,
		Why: "4 KB caches: permutation writes, writebacks and replacement hints load cpu, magic and memsys on the eviction path",
	},
	{
		Name: "explore_sweep", App: "fft", Procs: 4, Scale: 256, Cache: 1 << 20, Mem: 4 << 20,
		Sweep: true,
		Why:   "144 short simulations in a fresh process: core New/Reset/Snapshot/Restore and the exp pool dominate, the simulation layers do little",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is the machine cmd/flashsim builds for this workload. Engine and PP
// dispatch are pinned so FLASHSIM_* variables in the caller's environment
// cannot change what the default legs measure.
func (w workloadDef) config(kind arch.MachineKind) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = kind
	cfg.Nodes = w.Procs
	cfg.CacheSize = w.Cache
	cfg.MemBytesPerNode = w.Mem
	cfg.Engine = arch.EngineSeq
	cfg.PPDispatch = arch.PPDispatchCompiled
	return cfg
}

// metricDef names one metric. Better is "lower" or "higher"; for an exact
// simulated count it is the direction a regression would not take.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// gated are the end-to-end metrics BENCHMARK.json lists: host costs every
// workload has and that are never zero. Ten-run spreads (quartile distance
// over median) on the 2-CPU reference host were 2-4% for the times in calm
// periods and up to 9% in noisy ones, 0.7% for RSS and 4-17% for set-up; the
// time bounds sit above the noisy spread so the same commit never fails them.
var gated = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// derived end-to-end metrics exist on some workloads only, or repeat
// exactly, so they cannot be gated by spread; bench prints and compares them.
var derived = []metricDef{
	{"sim_krefs_per_s", "krefs/s", "higher", 0.15},
	{"points_per_s", "1/s", "higher", 0.15},
	{"paper_gap_pts", "pct_pts", "lower", 0},
	{"failed_frac", "frac", "lower", 0},
}

// layers are the per-layer metrics, every one emitted by every workload on a
// traced run. A layer a workload never enters reports 0 (exp.* on the pair
// workloads).
var layers = []metricDef{
	// Stage spans, median over the untraced repetitions.
	{"core.new_ms", "ms", "lower", 0},
	{"apps.build_ms", "ms", "lower", 0},
	{"workload.run_s", "s", "lower", 0},
	{"ideal.run_s", "s", "lower", 0},
	{"apps.verify_ms", "ms", "lower", 0},
	{"core.check_coherence_ms", "ms", "lower", 0},
	{"stats.collect_ms", "ms", "lower", 0},
	{"core.cold_setup_ms", "ms", "lower", 0},
	{"bench.span_coverage", "frac", "higher", 0},

	// Counts and simulated occupancy from the traced FLASH leg; exact.
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_ref", "ratio", "lower", 0},
	{"workload.refs", "count", "lower", 0},
	{"cpu.miss_rate", "frac", "lower", 0},
	{"cpu.writebacks_per_kref", "ratio", "lower", 0},
	{"cpu.read_stall_frac", "frac", "lower", 0},
	{"magic.handlers", "count", "lower", 0},
	{"magic.handlers_per_miss", "ratio", "lower", 0},
	{"magic.naks", "count", "lower", 0},
	{"magic.avg_pp_occ", "frac", "lower", 0},
	{"magic.max_pp_occ", "frac", "lower", 0},
	{"magic.spec_useless_frac", "frac", "lower", 0},
	{"ppsim.pairs_per_handler", "ratio", "lower", 0},
	{"ppsim.mdc_accesses", "count", "lower", 0},
	{"ppsim.mdc_miss_rate", "frac", "lower", 0},
	{"memsys.accesses", "count", "lower", 0},
	{"memsys.avg_occ", "frac", "lower", 0},
	{"memsys.max_occ", "frac", "lower", 0},
	{"network.msgs", "count", "lower", 0},
	{"network.msgs_per_miss", "ratio", "lower", 0},
	{"core.flash_cycles", "cycles", "lower", 0},
	{"ideal.cycles", "cycles", "lower", 0},
	{"core.slowdown_pct", "%", "lower", 0},
	{"trace.events", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	// Host CPU time by package, from the CPU profile of the traced pairs
	// (of a profiled sweep on explore_sweep).
	{"sim.cpu_share", "frac", "lower", 0},
	{"workload.cpu_share", "frac", "lower", 0},
	{"apps.cpu_share", "frac", "lower", 0},
	{"cpu.cpu_share", "frac", "lower", 0},
	{"magic.cpu_share", "frac", "lower", 0},
	{"ppsim.cpu_share", "frac", "lower", 0},
	{"protocol.cpu_share", "frac", "lower", 0},
	{"memsys.cpu_share", "frac", "lower", 0},
	{"network.cpu_share", "frac", "lower", 0},
	{"ideal.cpu_share", "frac", "lower", 0},
	{"stats.cpu_share", "frac", "lower", 0},
	{"trace.cpu_share", "frac", "lower", 0},
	{"core.cpu_share", "frac", "lower", 0},
	{"exp.cpu_share", "frac", "lower", 0},
	{"host.runtime_share", "frac", "lower", 0},
	{"host.coro_share", "frac", "lower", 0},
	{"host.gc_share", "frac", "lower", 0},
	{"host.unattributed_share", "frac", "lower", 0},

	// Probes: host time per call into one layer's public functions.
	{"workload.probe_read_rt_ns", "ns", "lower", 0},
	{"workload.probe_write_ns", "ns", "lower", 0},
	{"cpu.probe_cache_lookup_ns", "ns", "lower", 0},
	{"sim.probe_event_ns", "ns", "lower", 0},
	{"sim.probe_deliver_ns", "ns", "lower", 0},
	{"ppsim.probe_handler_ns", "ns", "lower", 0},
	{"ppsim.probe_handler_interp_ns", "ns", "lower", 0},
	{"network.probe_send_ns", "ns", "lower", 0},
	{"memsys.probe_store_word_ns", "ns", "lower", 0},
	{"protocol.probe_build_ms", "ms", "lower", 0},
	{"core.probe_reset_ms", "ms", "lower", 0},
	{"core.probe_snapshot_ms", "ms", "lower", 0},
	{"core.probe_restore_ms", "ms", "lower", 0},
	{"core.lat33_err_pct", "%", "lower", 0},
	{"workload.est_share", "frac", "lower", 0},
	{"ppsim.est_share", "frac", "lower", 0},
	{"sim.est_share", "frac", "lower", 0},

	// Backend axes: one FLASH leg each, workload.run_s over the default's.
	{"sim.sharded_barrier_w2_ratio", "ratio", "lower", 0},
	{"sim.sharded_watermark_w2_ratio", "ratio", "lower", 0},
	{"sim.sync_ops_per_kevent", "ratio", "lower", 0},
	{"ppsim.interp_ratio", "ratio", "lower", 0},
	{"core.sampled_ratio", "ratio", "lower", 0},
	{"stats.sampled_err_pct", "%", "lower", 0},

	// Sweep (0 on the pair workloads, which never enter exp).
	{"exp.cold_wall_s", "s", "lower", 0},
	{"exp.warm_over_cold", "ratio", "lower", 0},
	{"exp.cold_peak_rss_mb", "MB", "lower", 0},
	{"exp.pool_hits", "count", "higher", 0},
	{"exp.pool_builds", "count", "lower", 0},
	{"exp.cache_hits", "count", "higher", 0},
	{"exp.cache_misses", "count", "lower", 0},
	{"exp.points", "count", "higher", 0},

	// Process and Go runtime, per unit of work.
	{"host.sys_s", "s", "lower", 0},
	{"host.minor_faults", "count", "lower", 0},
	{"host.alloc_mb", "MB", "lower", 0},
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_cpu_frac", "frac", "lower", 0},
}
