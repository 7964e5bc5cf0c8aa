package core

import (
	"strconv"

	"flashsim/internal/metrics"
	"flashsim/internal/ppsim"
)

// EnableMetrics attaches a metrics registry to the machine and turns on the
// engine's host-side self-profiling. Call before Run; after Run (success or
// deadlock) the registry holds the machine-level series described in
// DESIGN.md §12. Purely observational: simulated cycles are bit-identical
// with metrics on or off, which TestMetricsDoNotPerturbSimulation pins.
func (m *Machine) EnableMetrics(reg *metrics.Registry) {
	m.Metrics = reg
	if reg != nil {
		m.Eng.EnableProfiling()
	}
}

// publishMetrics writes the machine's post-run counters and the engine's
// host-cost profile into the registry. Called once at the end of Run, on
// both the success and the error paths, so even a deadlocked or
// cycle-limited run leaves an inspectable snapshot behind.
func (m *Machine) publishMetrics() {
	reg := m.Metrics
	if reg == nil {
		return
	}
	reg.Gauge("flash_cycles").Set(int64(m.Elapsed))
	reg.Counter("flashsim_sim_events_total").Add(m.Eng.ExecutedEvents())
	reg.Counter("flashsim_net_msgs_total").Add(m.Net.TotalMsgs())
	reg.Counter("flashsim_net_data_msgs_total").Add(m.Net.TotalDataMsgs())
	reg.Counter("flashsim_net_reply_msgs_total").Add(m.Net.TotalReplyMsgs())
	var dispatches uint64
	for _, n := range m.Nodes {
		if n.Magic != nil {
			dispatches += n.Magic.Stats.Dispatches
		}
	}
	if dispatches != 0 {
		reg.Counter("flashsim_pp_dispatches_total").Add(dispatches)
	}
	hits, misses, evictions := ppsim.CompileCacheStats()
	reg.Gauge("flashsim_pp_compile_cache_hits").Set(int64(hits))
	reg.Gauge("flashsim_pp_compile_cache_misses").Set(int64(misses))
	reg.Gauge("flashsim_pp_compile_cache_evictions").Set(int64(evictions))

	p := m.Eng.Profile()
	if p == nil {
		return
	}
	reg.Counter("flashsim_engine_run_ns_total", "engine", p.Engine).Add(uint64(p.RunNS))
	if p.MergeNS != 0 {
		reg.Counter("flashsim_engine_merge_ns_total").Add(uint64(p.MergeNS))
	}
	if p.DrainNS != 0 {
		reg.Counter("flashsim_engine_outbox_drain_ns_total").Add(uint64(p.DrainNS))
	}
	for w, ns := range p.BarrierNS {
		if ns != 0 {
			reg.Counter("flashsim_engine_barrier_wait_ns_total", "worker", itoa(w)).Add(uint64(ns))
		}
	}
	for w, ns := range p.HorizonNS {
		if ns != 0 {
			reg.Counter("flashsim_engine_horizon_wait_ns_total", "worker", itoa(w)).Add(uint64(ns))
		}
	}
	if p.SolveNS != 0 {
		reg.Counter("flashsim_engine_solve_ns_total").Add(uint64(p.SolveNS))
	}
	if ops := p.SyncOps(); ops != 0 {
		reg.Counter("flashsim_engine_sync_ops_total", "sync", p.Sync).Add(ops)
	}
	if p.Solves != 0 {
		reg.Counter("flashsim_engine_solves_total").Add(p.Solves)
		reg.Counter("flashsim_engine_solve_ops_total").Add(p.SolveOps)
		reg.Counter("flashsim_engine_wait_ops_total").Add(p.WaitOps)
		reg.Counter("flashsim_engine_gate_advances_total").Add(p.GateAdvances)
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		shard := itoa(i)
		reg.Counter("flashsim_engine_window_exec_ns_total", "shard", shard).Add(uint64(s.ExecNS))
		reg.Counter("flashsim_engine_events_total", "shard", shard).Add(s.Executed)
		if s.Windows != 0 {
			reg.Counter("flashsim_engine_windows_total", "shard", shard).Add(s.Windows)
			reg.Counter("flashsim_engine_empty_windows_total", "shard", shard).Add(s.EmptyWindows)
		}
		// Queue depth: the name predates the calendar queue and is kept for
		// dashboards.
		reg.Gauge("flashsim_engine_heap_hiwater", "shard", shard).SetMax(int64(s.HeapHiWater))
		if s.InboxDrains != 0 {
			reg.Counter("flashsim_engine_inbox_drains_total", "shard", shard).Add(s.InboxDrains)
		}
		if s.InboxFlushes != 0 {
			reg.Counter("flashsim_engine_inbox_flushes_total", "shard", shard).Add(s.InboxFlushes)
		}
		for dst, n := range s.OutboxSent {
			if n != 0 {
				reg.Counter("flashsim_engine_outbox_msgs_total", "src", shard, "dst", itoa(dst)).Add(n)
			}
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
