package core

import (
	"strconv"

	"flashsim/internal/arch"
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
	reg.Set("flash_cycles", int64(m.Elapsed))
	reg.Add("flashsim_sim_events_total", m.Eng.ExecutedEvents())
	reg.Add("flashsim_net_msgs_total", m.Net.TotalMsgs())
	reg.Add("flashsim_net_data_msgs_total", m.Net.TotalDataMsgs())
	reg.Add("flashsim_net_reply_msgs_total", m.Net.TotalReplyMsgs())
	var dispatches uint64
	protoPages, cpuGroups, mdcGroups := 0, 0, 0
	for _, n := range m.Nodes {
		cpuGroups += n.CPU.Cache.Groups()
		if n.Magic != nil {
			dispatches += n.Magic.Stats.Dispatches
			protoPages += n.Magic.PP.Mem.Pages()
			mdcGroups += n.Magic.PP.MDC.Groups()
		}
	}
	if dispatches != 0 {
		reg.Add("flashsim_pp_dispatches_total", dispatches)
	}
	// Materialized 4 KiB pages of the sparse stores: the host memory the
	// run's data and its directories and pointer pools hold.
	reg.Set("flashsim_store_pages", int64(m.Backing.Pages()), "store", "data")
	// Materialized set groups (up to 4 KiB of tags each) of the processor
	// caches and the MDCs: the host memory the run's tags hold.
	reg.Set("flashsim_cache_groups", int64(cpuGroups), "cache", "cpu")
	if m.Cfg.Kind == arch.KindFLASH {
		reg.Set("flashsim_store_pages", int64(protoPages), "store", "protocol")
		reg.Set("flashsim_cache_groups", int64(mdcGroups), "cache", "mdc")
	}
	hits, misses, evictions := ppsim.CompileCacheStats()
	reg.Set("flashsim_pp_compile_cache_hits", int64(hits))
	reg.Set("flashsim_pp_compile_cache_misses", int64(misses))
	reg.Set("flashsim_pp_compile_cache_evictions", int64(evictions))

	p := m.Eng.Profile()
	if p == nil {
		return
	}
	reg.Add("flashsim_engine_run_ns_total", uint64(p.RunNS), "engine", p.Engine)
	if p.MergeNS != 0 {
		reg.Add("flashsim_engine_merge_ns_total", uint64(p.MergeNS))
	}
	if p.DrainNS != 0 {
		reg.Add("flashsim_engine_outbox_drain_ns_total", uint64(p.DrainNS))
	}
	for w, ns := range p.BarrierNS {
		if ns != 0 {
			reg.Add("flashsim_engine_barrier_wait_ns_total", uint64(ns), "worker", itoa(w))
		}
	}
	for w, ns := range p.HorizonNS {
		if ns != 0 {
			reg.Add("flashsim_engine_horizon_wait_ns_total", uint64(ns), "worker", itoa(w))
		}
	}
	if p.SolveNS != 0 {
		reg.Add("flashsim_engine_solve_ns_total", uint64(p.SolveNS))
	}
	if ops := p.SyncOps(); ops != 0 {
		reg.Add("flashsim_engine_sync_ops_total", ops, "sync", p.Sync)
	}
	if p.Solves != 0 {
		reg.Add("flashsim_engine_solves_total", p.Solves)
		reg.Add("flashsim_engine_solve_ops_total", p.SolveOps)
		reg.Add("flashsim_engine_wait_ops_total", p.WaitOps)
		reg.Add("flashsim_engine_gate_advances_total", p.GateAdvances)
	}
	for i := range p.Shards {
		s := &p.Shards[i]
		shard := itoa(i)
		reg.Add("flashsim_engine_window_exec_ns_total", uint64(s.ExecNS), "shard", shard)
		reg.Add("flashsim_engine_events_total", s.Executed, "shard", shard)
		if s.Windows != 0 {
			reg.Add("flashsim_engine_windows_total", s.Windows, "shard", shard)
			reg.Add("flashsim_engine_empty_windows_total", s.EmptyWindows, "shard", shard)
		}
		// Queue depth: the name predates the calendar queue and is kept for
		// dashboards.
		reg.Max("flashsim_engine_heap_hiwater", int64(s.HeapHiWater), "shard", shard)
		if s.InboxDrains != 0 {
			reg.Add("flashsim_engine_inbox_drains_total", s.InboxDrains, "shard", shard)
		}
		if s.InboxFlushes != 0 {
			reg.Add("flashsim_engine_inbox_flushes_total", s.InboxFlushes, "shard", shard)
		}
		for dst, n := range s.OutboxSent {
			if n != 0 {
				reg.Add("flashsim_engine_outbox_msgs_total", n, "src", shard, "dst", itoa(dst))
			}
		}
	}
}

func itoa(i int) string { return strconv.Itoa(i) }
