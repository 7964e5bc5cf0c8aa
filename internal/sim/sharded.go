package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedEngine is the conservative parallel discrete-event backend: the
// event population is partitioned into one Shard per node, and all shards
// execute concurrently over bounded windows of `window` cycles on a small
// worker pool.
//
// The lookahead argument: cross-node interaction happens only through
// Deliver with an arrival at least `window` cycles after the send (the
// machine's minimum network transit), so events inside the window
// [k·W, (k+1)·W) on different shards cannot affect each other — a send
// during window k arrives in window k+1 at the earliest. Shards run the whole
// window without synchronization; cross-node arrivals accumulate in
// per-(src,dst) outboxes and are merged into the destination queues at the
// window barrier by the coordinator. The merge is deterministic because a
// delivery's queue position depends only on (arrival cycle, source node,
// per-source send sequence) — never on the order outboxes are drained.
//
// With a worker-pool size of 1 (e.g. GOMAXPROCS=1) the same algorithm runs
// entirely on the coordinating goroutine, shard 0..N-1 in order, and
// produces identical results, which is what the differential tests pin.
type ShardedEngine struct {
	shards []*Shard
	window Cycle
	flush  func()
	curWin Cycle
	limit  Cycle

	// Workers overrides the worker-pool size; 0 means
	// min(len(shards), GOMAXPROCS). Exposed for differential tests.
	Workers int

	// sync selects the shard-synchronization scheme: the full window
	// barrier (default) or watermarks (watermark.go).
	sync SyncMode
	// wmGate is the watermark-mode store-visibility gate: events at cycles
	// < wmGate may execute given the flushes already performed. 0 means
	// uninitialized; set on the first watermark Run when a flush is
	// installed.
	wmGate Cycle

	running bool
	stopReq atomic.Bool

	// Window barrier: the coordinator publishes winEnd/winLim/quit, resets
	// done, and bumps phase; workers spin on phase, run their shards, and
	// count themselves into done. The atomics carry the happens-before
	// edges for everything written in between.
	phase  atomic.Uint64
	done   atomic.Int64
	winEnd Cycle
	winLim Cycle
	quit   bool

	// coordWins counts coordinator window iterations (barrier mode) across
	// the engine's lifetime; always on (one increment per window) because
	// the synchronization-cost accounting in profile.go derives the
	// barrier-mode op totals from it.
	coordWins uint64

	// Self-profiling (off unless EnableProfiling was called). The chained
	// timestamps attribute the coordinator and worker loops to the four
	// phases in profile.go; per-worker barrier slots and exit stamps (the
	// end of each worker's last lap) are written only by their owning
	// goroutine and read after the pool joins.
	profOn      bool
	profWorkers int
	runNS       int64
	mergeNS     int64
	drainNS     int64
	barrierNS   []int64
	exits       []time.Time

	// Watermark-mode self-profiling: per-worker horizon-wait time, decide
	// (horizon solve) time, and the synchronization-operation counters
	// described in profile.go. Engine-level counters are only written under
	// the scheduler lock or by the deciding worker.
	horizonNS []int64
	solveNS   int64
	wmSolves  uint64
	wmSolveOp uint64
	wmWaitOps uint64
	wmGateAdv uint64

	// Watermark decide() scratch, reused across decisions to stay
	// allocation-free.
	nextS []Cycle
	hasS  []bool
}

// Shard is one node's slice of the event population. It implements
// Scheduler; all of a node's components schedule through their shard.
type Shard struct {
	queue
	id     int
	eng    *ShardedEngine
	outbox [][]delivery // per destination shard, drained at barriers

	// Watermark-mode synchronization state: inbox is the MPSC mailbox peers
	// append staged deliveries into (batched, one lock per burst per pair);
	// the quiescent scheduler swaps it against inboxSpare when it drains.
	inMu       sync.Mutex
	inbox      []delivery
	inboxSpare []delivery

	// Self-profiling fields, written only by the goroutine driving this
	// shard (or by the coordinator at barriers, for sent).
	execNS      int64
	windows     uint64
	emptyWins   uint64
	maxEvWindow uint64
	sent        []uint64 // deliveries routed per destination shard
	drains      uint64   // nonempty inbox drains (watermark)
	inFlushes   uint64   // batched appends into peer inboxes (watermark)
}

type delivery struct {
	at  Cycle
	key Key
	fn  func()
}

// NewShardedEngine returns a parallel engine with n shards and the given
// lookahead window in cycles (the minimum cross-shard latency; a machine's
// network transit). SetQuantum with a nonzero quantum overrides the window,
// since the store-visibility quantum and the lookahead window are the same
// quantity for a machine.
func NewShardedEngine(n int, window Cycle) *ShardedEngine {
	if n < 1 {
		n = 1
	}
	if window == 0 {
		window = 1
	}
	e := &ShardedEngine{window: window}
	e.shards = make([]*Shard, n)
	for i := range e.shards {
		e.shards[i] = &Shard{id: i, eng: e, outbox: make([][]delivery, n)}
	}
	return e
}

// Node returns node i's shard.
func (e *ShardedEngine) Node(i int) Scheduler { return e.shards[i] }

// SetSync selects the shard-synchronization scheme; see SyncMode. Call
// before Run.
func (e *ShardedEngine) SetSync(m SyncMode) { e.sync = m }

// Sync reports the engine's shard-synchronization scheme.
func (e *ShardedEngine) Sync() SyncMode { return e.sync }

// SetLimit sets the cycle limit (0 = none).
func (e *ShardedEngine) SetLimit(l Cycle) { e.limit = l }

// SetQuantum installs the store-visibility flush and adopts q as the
// lookahead window; see Backend.
func (e *ShardedEngine) SetQuantum(q Cycle, flush func()) {
	if q != 0 {
		e.window = q
	}
	e.flush = flush
}

// EnableProfiling turns on host-side self-profiling; see Backend.
func (e *ShardedEngine) EnableProfiling() {
	e.profOn = true
	for _, s := range e.shards {
		if s.sent == nil {
			s.sent = make([]uint64, len(e.shards))
		}
	}
}

// Profile returns the host-cost breakdown, nil if profiling is off.
func (e *ShardedEngine) Profile() *EngineProfile {
	if !e.profOn {
		return nil
	}
	p := &EngineProfile{
		Engine:       "sharded",
		Workers:      e.profWorkers,
		RunNS:        e.runNS,
		MergeNS:      e.mergeNS,
		DrainNS:      e.drainNS,
		BarrierNS:    append([]int64(nil), e.barrierNS...),
		Sync:         e.sync.String(),
		HorizonNS:    append([]int64(nil), e.horizonNS...),
		SolveNS:      e.solveNS,
		Solves:       e.wmSolves,
		SolveOps:     e.wmSolveOp,
		WaitOps:      e.wmWaitOps,
		GateAdvances: e.wmGateAdv,
		CoordWindows: e.coordWins,
	}
	for _, s := range e.shards {
		p.Shards = append(p.Shards, ShardProfile{
			ExecNS:          s.execNS,
			Executed:        s.Executed,
			Windows:         s.windows,
			EmptyWindows:    s.emptyWins,
			MaxEventsWindow: s.maxEvWindow,
			HeapHiWater:     uint64(s.hiWater),
			OutboxSent:      append([]uint64(nil), s.sent...),
			InboxDrains:     s.drains,
			InboxFlushes:    s.inFlushes,
		})
	}
	return p
}

// Stop makes Run return at the current window barrier. Events already
// inside the window on other shards still execute; the calling shard (when
// Stop is invoked from a simulation event) halts immediately.
func (e *ShardedEngine) Stop() { e.stopReq.Store(true) }

// Reset returns the engine to its freshly constructed state: every shard's
// queue and mailboxes emptied, all clocks at 0, executed counts cleared.
// Window/sync configuration and profiling accumulation survive.
// Must not be called while Run is in progress.
func (e *ShardedEngine) Reset() {
	for _, s := range e.shards {
		s.queue.reset()
		for i := range s.outbox {
			s.outbox[i] = s.outbox[i][:0]
		}
		s.inMu.Lock()
		s.inbox = s.inbox[:0]
		s.inboxSpare = s.inboxSpare[:0]
		s.inMu.Unlock()
	}
	e.curWin = 0
	e.limit = 0
	e.wmGate = 0
	e.stopReq.Store(false)
}

// Now returns the globally latest shard clock: the cycle of the last event
// dispatched anywhere, matching the sequential engine's clock.
func (e *ShardedEngine) Now() Cycle {
	var max Cycle
	for _, s := range e.shards {
		if s.now > max {
			max = s.now
		}
	}
	return max
}

// ExecutedEvents returns the total number of events dispatched across all
// shards since construction.
func (e *ShardedEngine) ExecutedEvents() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Executed
	}
	return n
}

// Pending reports undispatched events across all shards, outboxes, and
// watermark inboxes.
func (e *ShardedEngine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.pending()
		for _, box := range s.outbox {
			n += len(box)
		}
		s.inMu.Lock()
		n += len(s.inbox)
		s.inMu.Unlock()
	}
	return n
}

// minNext returns the earliest undispatched event cycle across all shards.
// Only valid at barriers, when outboxes are drained.
func (e *ShardedEngine) minNext() (Cycle, bool) {
	var min Cycle
	ok := false
	for _, s := range e.shards {
		if t, has := s.nextAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// route drains every outbox into the destination shards. Single-threaded
// (coordinator, at a barrier); the resulting queue order is independent of
// drain order because (at, key) pairs are unique.
func (e *ShardedEngine) route() {
	for _, src := range e.shards {
		for dst, box := range src.outbox {
			if len(box) == 0 {
				continue
			}
			if src.sent != nil {
				src.sent[dst] += uint64(len(box))
			}
			d := e.shards[dst]
			for _, dl := range box {
				d.push(dl.at, dl.key, dl.fn)
			}
			// Reuse the backing array; nil the closures so they release.
			clear(box)
			src.outbox[dst] = box[:0]
		}
	}
}

// poolSize resolves the worker-pool size for this run.
func (e *ShardedEngine) poolSize() int {
	p := e.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if n := len(e.shards); p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Run executes until every shard drains, Stop is called, or the cycle limit
// is exceeded. Limit semantics match the sequential engine: an event at
// exactly the limit runs; ErrLimit is returned when only events beyond it
// remain. The barrier scheme below runs lookahead windows separated by full
// rendezvous; SyncWatermark delegates to the watermark scheduler in
// watermark.go.
func (e *ShardedEngine) Run() error {
	e.stopReq.Store(false)
	for _, s := range e.shards {
		s.stopped = false
	}
	if e.limit != 0 && e.Now() > e.limit {
		return ErrLimit
	}
	if e.sync == SyncWatermark {
		return e.runWatermark()
	}

	p := e.poolSize()

	// Profiling uses chained timestamps: each lap both ends one interval
	// and begins the next, so coordinator time tiles into merge, exec,
	// barrier, and drain with no gaps (see profile.go).
	prof := e.profOn
	var start, mark time.Time
	if prof {
		e.profWorkers = p
		e.barrierNS = make([]int64, p)
		e.exits = make([]time.Time, p)
		start = time.Now()
		mark = start
	}

	e.quit = false
	e.running = true
	var wg sync.WaitGroup
	if p > 1 {
		base := e.phase.Load()
		for w := 1; w < p; w++ {
			wg.Add(1)
			go e.workerLoop(w, p, base, start, &wg)
		}
	}
	defer func() {
		if prof {
			e.exits[0] = mark
		}
		if p > 1 {
			e.quit = true
			e.phase.Add(1)
			wg.Wait()
		}
		e.running = false
		if prof {
			e.endRun(start, e.barrierNS)
		}
	}()

	for {
		t, ok := e.minNext()
		if !ok || (e.limit != 0 && t > e.limit) {
			if prof {
				e.mergeNS += lap(&mark)
			}
			if ok {
				return ErrLimit
			}
			return nil
		}
		win := t / e.window
		if win > e.curWin {
			e.curWin = win
			if e.flush != nil {
				e.flush()
			}
		}
		end := (win + 1) * e.window
		e.winEnd, e.winLim = end, e.limit
		e.coordWins++
		if prof {
			e.mergeNS += lap(&mark)
		}

		if p > 1 {
			e.done.Store(0)
			e.phase.Add(1)
		}
		e.runStride(0, p, end, e.limit, &mark)
		if p > 1 {
			e.done.Add(1)
			for spins := 0; e.done.Load() < int64(p); spins++ {
				if spins > 256 {
					runtime.Gosched()
				}
			}
			if prof {
				e.barrierNS[0] += lap(&mark)
			}
		}

		e.route()
		if prof {
			e.drainNS += lap(&mark)
		}
		if e.stopReq.Load() {
			return nil
		}
	}
}

// workerLoop is one pool worker: it spins on the barrier phase, runs its
// fixed stride of shards for the published window, and checks in. Its
// chained timestamp starts at the run's start, so scheduling delay on an
// oversubscribed host is charged to barrier wait.
func (e *ShardedEngine) workerLoop(w, p int, last uint64, start time.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	prof := e.profOn
	mark := start
	for {
		for spins := 0; ; spins++ {
			if ph := e.phase.Load(); ph != last {
				last = ph
				break
			}
			if spins > 256 {
				runtime.Gosched()
			}
		}
		if prof {
			e.barrierNS[w] += lap(&mark)
		}
		if e.quit {
			if prof {
				e.exits[w] = mark
			}
			return
		}
		e.runStride(w, p, e.winEnd, e.winLim, &mark)
		e.done.Add(1)
	}
}

// runStride runs pool member w's shards (w, w+p, ...) for one window; with a
// pool of one the coordinator's stride is every shard, in index order.
func (e *ShardedEngine) runStride(w, p int, end, lim Cycle, mark *time.Time) {
	for i := w; i < len(e.shards); i += p {
		s := e.shards[i]
		s.runWindow(end, lim)
		if e.profOn {
			s.execNS += lap(mark)
		}
	}
}

// runWindow dispatches this shard's events for one lookahead window (or
// one watermark burst), recording utilization counters when profiling is on.
func (s *Shard) runWindow(end, lim Cycle) {
	if !s.eng.profOn {
		s.run(end, lim)
		return
	}
	before := s.Executed
	s.run(end, lim)
	s.windows++
	if d := s.Executed - before; d == 0 {
		s.emptyWins++
	} else if d > s.maxEvWindow {
		s.maxEvWindow = d
	}
}

// Stop halts this shard after the current event and makes Run return at
// the window barrier.
func (s *Shard) Stop() {
	s.stopped = true
	s.eng.stopReq.Store(true)
}

// Deliver routes a message arrival to shard dst; see send.
func (s *Shard) Deliver(at Cycle, src, dst int, seq uint64, fn func()) {
	s.send(at, at, Key{0, deliveryKey(src, seq)}, src, dst, fn)
}

// DeliverSettled routes a settled message arrival to shard dst; see
// Scheduler and send.
func (s *Shard) DeliverSettled(arrive, d Cycle, src, dst int, seq uint64, fn func()) {
	s.send(arrive, arrive+d, Key{arrive, deliveryKey(src, seq)}, src, dst, fn)
}

// send routes a message arriving at cycle arrive, to run at cycle at under
// key k, to shard dst. During a run the delivery parks in this shard's
// outbox (merged at the barrier in barrier mode, batch-appended to the
// destination inbox after the burst in watermark mode); outside Run — e.g.
// test setup — it goes straight into the destination queue. Arrivals whose
// transit undercuts the conservative synchronization contract panic, naming
// the (src,dst) pair and the lookahead.
func (s *Shard) send(arrive, at Cycle, k Key, src, dst int, fn func()) {
	e := s.eng
	if !e.running {
		e.shards[dst].deliver(arrive, at, k, fn)
		return
	}
	if e.sync == SyncWatermark {
		if arrive < s.now+e.window {
			panic(fmt.Sprintf("sim: sharded delivery %d->%d at cycle %d sent at %d: transit %d below lookahead %d",
				src, dst, arrive, s.now, arrive-s.now, e.window))
		}
		if dst == s.id {
			// Self-deliveries join the shard's own queue directly: the
			// event order is identical to routing through a mailbox.
			s.push(at, k, fn)
			return
		}
	} else if arrive < e.winEnd {
		panic(fmt.Sprintf("sim: sharded delivery %d->%d at cycle %d inside window ending %d (transit below lookahead %d)",
			src, dst, arrive, e.winEnd, e.window))
	}
	s.outbox[dst] = append(s.outbox[dst], delivery{at: at, key: k, fn: fn})
}
