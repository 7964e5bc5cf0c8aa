package sim

import (
	"fmt"
	"strings"
	"time"
)

// This file is the engines' self-profiling surface: where does *host* time
// go while the simulated machine runs? The sharded engine attributes every
// nanosecond of its coordinator and worker loops to one of four phases —
// window execution, barrier wait, outbox drain, and window merge — using
// chained timestamps: each clock reading both ends one interval and begins
// the next, so the attribution has no gaps by construction and Coverage
// approaches 1 for any run long enough to dwarf Run's setup cost.
//
// Profiling is off by default and costs nothing when off (a handful of
// predictable branches). When on it adds two clock reads per shard per
// window — purely host-side; simulated cycles stay bit-identical, which the
// metrics non-perturbation golden test in internal/exp pins.

// EngineProfile is the host-cost breakdown of one engine's Run.
type EngineProfile struct {
	// Engine is the backend name: "seq" or "sharded".
	Engine string `json:"engine"`
	// Workers is the worker-pool size the run used (1 for seq).
	Workers int `json:"workers"`
	// RunNS is the wall-clock duration of Run, including pool setup.
	RunNS int64 `json:"run_ns"`
	// MergeNS is coordinator time spent on window bookkeeping between
	// barriers: finding the next window, publishing it, and running the
	// store-visibility flush (sharded only).
	MergeNS int64 `json:"merge_ns,omitempty"`
	// DrainNS is coordinator time spent routing outboxes into destination
	// queues at barriers (sharded only).
	DrainNS int64 `json:"drain_ns,omitempty"`
	// BarrierNS is per-worker time spent spinning at the window barrier;
	// index 0 is the coordinating goroutine.
	BarrierNS []int64 `json:"barrier_ns,omitempty"`
	// Sync is the sharded engine's shard-synchronization scheme ("barrier"
	// or "watermark"); empty for seq.
	Sync string `json:"sync,omitempty"`
	// HorizonNS is per-worker time spent asleep waiting for peer bursts to
	// uncover more safe work (watermark mode); index 0 is the goroutine that
	// called Run.
	HorizonNS []int64 `json:"horizon_ns,omitempty"`
	// SolveNS is time spent in the quiescent decide step: sweeping mailboxes
	// and solving the burst horizons (watermark mode).
	SolveNS int64 `json:"solve_ns,omitempty"`
	// Solves counts decide invocations and SolveOps the per-shard scan steps
	// they performed (watermark mode).
	Solves   uint64 `json:"solves,omitempty"`
	SolveOps uint64 `json:"solve_ops,omitempty"`
	// WaitOps counts worker sleeps on the scheduler condition — the
	// watermark analogue of a barrier crossing, paid only when a worker
	// actually runs out of safe work.
	WaitOps uint64 `json:"wait_ops,omitempty"`
	// GateAdvances counts store-visibility gate advances: one per occupied
	// window, however far apart those windows are (watermark mode).
	GateAdvances uint64 `json:"gate_advances,omitempty"`
	// CoordWindows counts coordinator window iterations (barrier mode);
	// recorded even with profiling off because SyncOps derives the
	// barrier-mode totals from it.
	CoordWindows uint64 `json:"coord_windows,omitempty"`
	// Shards holds the per-shard breakdown (one pseudo-shard for seq).
	Shards []ShardProfile `json:"shards"`
}

// ShardProfile is one shard's slice of the breakdown.
type ShardProfile struct {
	// ExecNS is time spent inside this shard's window execution.
	ExecNS int64 `json:"exec_ns"`
	// Executed counts events this shard dispatched.
	Executed uint64 `json:"executed"`
	// Windows counts lookahead windows this shard was driven through.
	Windows uint64 `json:"windows,omitempty"`
	// EmptyWindows counts windows in which this shard dispatched nothing —
	// pure lookahead overhead.
	EmptyWindows uint64 `json:"empty_windows,omitempty"`
	// MaxEventsWindow is the largest number of events in one window.
	MaxEventsWindow uint64 `json:"max_events_window,omitempty"`
	// HeapHiWater is the deepest the shard's event queue ever grew (events
	// pending in the calendar ring; the name predates it).
	HeapHiWater uint64 `json:"heap_hiwater"`
	// OutboxSent counts cross-shard deliveries routed from this shard per
	// destination shard — the (src,dst) traffic matrix row.
	OutboxSent []uint64 `json:"outbox_sent,omitempty"`
	// InboxDrains counts this shard's nonempty mailbox drains and
	// InboxFlushes the batched appends it made into peer mailboxes, one lock
	// acquisition each. Watermark mode only.
	InboxDrains  uint64 `json:"inbox_drains,omitempty"`
	InboxFlushes uint64 `json:"inbox_flushes,omitempty"`
}

// AccountedNS sums all attributed time: shard execution, barrier waits,
// outbox drain, window merge, horizon waits, and horizon solving.
func (p *EngineProfile) AccountedNS() int64 {
	total := p.MergeNS + p.DrainNS + p.SolveNS
	for _, ns := range p.BarrierNS {
		total += ns
	}
	for _, ns := range p.HorizonNS {
		total += ns
	}
	for i := range p.Shards {
		total += p.Shards[i].ExecNS
	}
	return total
}

// SyncOps totals the synchronization operations the run performed — the
// quantity watermark mode exists to reduce. One unit is one operation on
// shared scheduling state: a lock acquisition, a condition-variable sleep,
// or one step of a scan over per-shard coordination state. Barrier mode
// pays, every window, a full outbox-route scan (n² pair slots), a
// next-event scan (n shards), and one barrier crossing per worker.
// Watermark mode pays only for actual traffic and actual scheduling:
// mailbox drains and batched mailbox flushes (one lock each), worker
// sleeps, decide invocations (one queue rebuild + broadcast each), decide
// scan steps, and gate advances.
func (p *EngineProfile) SyncOps() uint64 {
	n := uint64(len(p.Shards))
	if p.Sync == "watermark" {
		ops := p.Solves + p.SolveOps + p.WaitOps + p.GateAdvances
		for i := range p.Shards {
			s := &p.Shards[i]
			ops += s.InboxDrains + s.InboxFlushes
		}
		return ops
	}
	return p.CoordWindows * (n*n + n + uint64(p.Workers))
}

// Coverage is the fraction of total engine wall time (RunNS times the pool
// size, since every worker burns wall clock for the whole run) attributed
// to a phase. The profile report requires this to stay near 1.
func (p *EngineProfile) Coverage() float64 {
	if p.RunNS <= 0 || p.Workers <= 0 {
		return 0
	}
	return float64(p.AccountedNS()) / (float64(p.RunNS) * float64(p.Workers))
}

// shardWorker returns the pool worker that drives shard i.
func (p *EngineProfile) shardWorker(i int) int {
	if p.Workers <= 0 {
		return 0
	}
	return i % p.Workers
}

// ShardBarrierNS attributes barrier-wait time to shard i: its worker's
// spin time divided evenly over the shards that worker drives.
func (p *EngineProfile) ShardBarrierNS(i int) int64 {
	w := p.shardWorker(i)
	if w >= len(p.BarrierNS) {
		return 0
	}
	// Shards j with j ≡ w (mod Workers) in [0, len(Shards)).
	n := (len(p.Shards) - w + p.Workers - 1) / p.Workers
	if n <= 0 {
		return 0
	}
	return p.BarrierNS[w] / int64(n)
}

// String renders the attribution report: phase totals with shares of total
// engine wall time, then the per-shard table.
func (p *EngineProfile) String() string {
	var b strings.Builder
	name := p.Engine
	if p.Sync != "" {
		name += "/" + p.Sync
	}
	fmt.Fprintf(&b, "%s engine: run %.3fs, %d worker(s), coverage %.1f%%\n",
		name, float64(p.RunNS)/1e9, p.Workers, 100*p.Coverage())
	totalNS := p.RunNS * int64(p.Workers)
	if totalNS <= 0 {
		totalNS = 1
	}
	var execNS, barrierNS, horizonNS int64
	for i := range p.Shards {
		execNS += p.Shards[i].ExecNS
	}
	for _, ns := range p.BarrierNS {
		barrierNS += ns
	}
	for _, ns := range p.HorizonNS {
		horizonNS += ns
	}
	share := func(ns int64) string {
		return fmt.Sprintf("%.2fs (%.1f%%)", float64(ns)/1e9, 100*float64(ns)/float64(totalNS))
	}
	if p.Sync == "watermark" {
		fmt.Fprintf(&b, "  burst exec %s  horizon wait %s  horizon solve %s\n",
			share(execNS), share(horizonNS), share(p.SolveNS))
		fmt.Fprintf(&b, "  sync ops %d (solve %d in %d decides, waits %d, gate advances %d)\n",
			p.SyncOps(), p.SolveOps, p.Solves, p.WaitOps, p.GateAdvances)
		fmt.Fprintf(&b, "  %-5s %10s %7s %8s %7s %8s %9s %7s %8s\n",
			"shard", "exec_ms", "exec%", "bursts", "empty", "ev/burst", "heap_hw", "drains", "flushes")
		for i := range p.Shards {
			s := &p.Shards[i]
			fmt.Fprintf(&b, "  %-5d %10.2f %6.1f%% %8d %7d %8.1f %9d %7d %8d\n",
				i, float64(s.ExecNS)/1e6, 100*float64(s.ExecNS)/float64(totalNS),
				s.Windows, s.EmptyWindows, s.perWindow(), s.HeapHiWater,
				s.InboxDrains, s.InboxFlushes)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "  window exec %s  barrier wait %s  outbox drain %s  merge %s\n",
		share(execNS), share(barrierNS), share(p.DrainNS), share(p.MergeNS))
	if p.Engine != "sharded" {
		return b.String()
	}
	fmt.Fprintf(&b, "  sync ops %d (%d windows)\n", p.SyncOps(), p.CoordWindows)
	fmt.Fprintf(&b, "  %-5s %10s %7s %12s %9s %8s %7s %8s %9s\n",
		"shard", "exec_ms", "exec%", "barrier_ms", "barrier%", "windows", "empty", "ev/win", "heap_hw")
	for i := range p.Shards {
		s := &p.Shards[i]
		bar := p.ShardBarrierNS(i)
		fmt.Fprintf(&b, "  %-5d %10.2f %6.1f%% %12.2f %8.1f%% %8d %7d %7.1f %9d\n",
			i, float64(s.ExecNS)/1e6, 100*float64(s.ExecNS)/float64(totalNS),
			float64(bar)/1e6, 100*float64(bar)/float64(totalNS),
			s.Windows, s.EmptyWindows, s.perWindow(), s.HeapHiWater)
	}
	return b.String()
}

// perWindow is the shard's mean events per window (or watermark burst).
func (s *ShardProfile) perWindow() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.Executed) / float64(s.Windows)
}

// endRun closes a profiled Run's chained timestamps. Every worker's chain
// starts at start; the tail from its exit stamp to the pool's join, a wait
// for the slowest peer, is charged to its wait slot, so each worker's laps
// tile the whole run.
func (e *ShardedEngine) endRun(start time.Time, wait []int64) {
	end := time.Now()
	for w, x := range e.exits {
		wait[w] += end.Sub(x).Nanoseconds()
	}
	e.runNS += end.Sub(start).Nanoseconds()
}

// lap returns the nanoseconds since *mark and advances *mark to now, with a
// single clock read — consecutive laps tile time without gaps.
func lap(mark *time.Time) int64 {
	now := time.Now()
	d := now.Sub(*mark).Nanoseconds()
	*mark = now
	return d
}
