package sim

import (
	"sync"
	"time"
)

// This file is the sharded engine's watermark synchronization scheme: the
// conservative distance-aware replacement for the uniform-window full
// barrier in sharded.go.
//
// Protocol. Each shard a maintains a monotone frontier fr[a] (its
// "sent-through" watermark): every event at a cycle < fr[a] has executed,
// and no send will ever originate from a cycle < fr[a]. Because a delivery
// from a to b takes at least the pair lookahead L[a][b] (the per-(src,dst)
// matrix from SetLookahead, uniform window otherwise), every arrival at b
// lands at or beyond fr[a] + L[a][b]. Shard b may therefore execute every
// event strictly below its horizon
//
//	hz[b] = min over a != b of fr[a] + L[a][b]
//
// without ever seeing a late arrival — shards synchronize exactly as much
// as the distance model demands, instead of rendezvousing at every W
// cycles. Deliveries stage in the sender's per-destination outbox during a
// burst and are batch-appended to the destination's mailbox (one lock per
// pair touched); the arrival bound above guarantees everything appended
// while a burst runs lands at or beyond the receiver's horizon, so bursts
// never need to re-check their mailboxes mid-flight.
//
// Scheduling is cooperative rather than free-running: a small worker pool
// pulls (shard, horizon) bursts from a queue, and a completed burst
// records its shard's new frontier (= the burst horizon) in the scheduler
// under the scheduler lock. When the pool quiesces the last idle worker
// runs decide(), which sweeps the nonempty mailboxes, snapshots next-event
// times, and solves the horizons:
//
//   - When the lookahead matrix satisfies the triangle inequality (uniform
//     and mesh both do), a null message relayed through an intermediate
//     shard can never beat the direct pair bound, so the Chandy-Misra-Bryant
//     fixpoint collapses to a closed form over next-event times —
//     hz[b] = min(cap, next[b]+rt[b], min over event-holding a != b of
//     next[a] + L[a][b]), where rt[b] is b's minimum round trip through any
//     peer, bounding echoes of b's own sends — solved in one O(n) pass
//     (min/second-min for uniform lookahead).
//   - A non-metric matrix falls back to the iterative Gauss-Seidel fixpoint
//     over the persistent frontier array, with idle shards promising
//     silence up to min(horizon, next event).
//
// decide() then schedules every shard whose horizon uncovered work, and
// fails over to the store-visibility gate, the cycle limit, or
// termination. Progress: whenever events remain below the cap the
// earliest-event shard is always schedulable (its bound exceeds its own
// next-event time by at least the minimum lookahead), so either work is
// scheduled, the gate advances (one flush per occupied window, mirroring
// the sequential engine's flush-on-window-entry), the limit fires, or the
// run is done — an idle shard with no traffic can never stall its peers.
//
// Store visibility. The memsys view flush must stay a global quantum (the
// torture tests pin same-window same-word cross-node writes resolved by
// node-ordered flushing), so the gate wmGate caps every horizon at the next
// unflushed window boundary. decide() advances it only when the pool is
// quiescent and every frontier has reached the gate — at that point no
// shard is executing, every event below the boundary has run, and the
// flush is race-free and bit-identical in content and order to the
// sequential engine's.
//
// Determinism. Horizons only gate WHEN an event may run, never its queue
// order: the 64-bit (cycle, key) event keys fully determine per-shard
// dispatch order, mailbox drain order is irrelevant (keys are unique), and
// flush points are fixed by the quantum. Worker count and goroutine
// interleaving cannot leak into simulated behaviour.

// SyncMode selects how the sharded engine's shards synchronize.
type SyncMode uint8

const (
	// SyncBarrier is the uniform-window scheme: all shards rendezvous at a
	// full spin-barrier every lookahead window (sharded.go).
	SyncBarrier SyncMode = iota
	// SyncWatermark is the per-pair watermark scheme described above.
	SyncWatermark
)

func (m SyncMode) String() string {
	if m == SyncWatermark {
		return "watermark"
	}
	return "barrier"
}

// noCap is the horizon cap when neither a cycle limit nor a store
// visibility gate applies: far beyond any simulated time, small enough
// that adding a lookahead can never overflow.
const noCap = Cycle(1) << 62

// wmState is one watermark Run's scheduler state. All fields are guarded
// by mu; workers sleep on cond when peers are still bursting.
type wmState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tasks   []wmTask
	head    int // next unclaimed task
	running int // bursts in flight
	done    bool
	err     error
}

// wmTask is one scheduled burst: run shard up to (excluding) hz.
type wmTask struct {
	shard int
	hz    Cycle
}

// runWatermark is Run's watermark-mode body; see the file comment.
func (e *ShardedEngine) runWatermark() error {
	p := e.poolSize()
	if e.flush != nil && e.wmGate == 0 {
		e.wmGate = e.window
	}
	n := len(e.shards)
	if e.frS == nil || len(e.frS) != n {
		e.frS = make([]Cycle, n)
		e.hzS = make([]Cycle, n)
		e.nextS = make([]Cycle, n)
		e.hasS = make([]bool, n)
	}
	prof := e.profOn
	var start time.Time
	if prof {
		e.profWorkers = p
		e.horizonNS = make([]int64, p)
		start = time.Now()
	}
	st := &wmState{}
	st.cond = sync.NewCond(&st.mu)
	e.running = true
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.wmWorker(w, st, start)
		}(w)
	}
	e.wmWorker(0, st, start)
	wg.Wait()
	e.running = false
	if prof {
		e.runNS += time.Since(start).Nanoseconds()
	}
	return st.err
}

// wmWorker is one pool worker: claim bursts while they exist, sleep while
// peers burst, and run decide() when the whole pool quiesces. The chained
// timestamp starts at the run's start (not the goroutine's), so a worker's
// scheduling delay on an oversubscribed host is charged to horizon wait
// rather than falling out of the attribution.
func (e *ShardedEngine) wmWorker(w int, st *wmState, start time.Time) {
	prof := e.profOn
	mark := start
	waited := func() { // charge the lap just ended to horizon wait
		if prof {
			e.horizonNS[w] += lap(&mark)
		}
	}
	waited()
	st.mu.Lock()
	for {
		if st.done {
			waited()
			st.mu.Unlock()
			return
		}
		if st.head < len(st.tasks) {
			t := st.tasks[st.head]
			st.head++
			st.running++
			st.mu.Unlock()
			s := e.shards[t.shard]
			e.burst(s, t.hz)
			if prof {
				s.execNS += lap(&mark)
			}
			st.mu.Lock()
			st.running--
			// Record the frontier the burst committed through. A plain
			// write under the scheduler lock decide() already holds when it
			// reads — the burst's mailbox appends happen-before via this
			// same lock. A stopped shard publishes nothing: it did not
			// commit through hz.
			if !s.stopped && t.hz > e.frS[t.shard] {
				e.frS[t.shard] = t.hz
				if prof {
					s.pubs++
				}
			}
			if e.stopReq.Load() && !st.done {
				// Bursts in flight finish; nothing new is scheduled.
				st.done = true
				st.cond.Broadcast()
			}
			continue
		}
		if st.running > 0 {
			// Peers are still bursting and may reveal more work.
			e.wmWaitOps++
			waited()
			st.cond.Wait()
			waited()
			continue
		}
		// Pool quiescent: no tasks, no bursts in flight.
		waited()
		e.decide(st)
		if prof {
			e.solveNS += lap(&mark)
		}
	}
}

// drainInbox swaps the shard's mailbox empty and pushes its deliveries into
// the queue. Queue order is (at, key), so drain timing and order never affect
// dispatch order. Only a quiescent decide() calls it.
func (s *Shard) drainInbox(prof bool) {
	s.inMu.Lock()
	in := s.inbox
	s.inbox = s.inboxSpare[:0]
	s.inMu.Unlock()
	for i := range in {
		s.push(in[i].at, in[i].key, in[i].fn)
	}
	if prof && len(in) > 0 {
		s.drains++
	}
	clear(in)
	s.inboxSpare = in[:0]
}

// burst executes every event strictly below the horizon hz and
// batch-flushes staged deliveries into peer mailboxes. The horizon came
// from next-event times shards cannot retract while quiescent, and decide()
// already swept every mailbox before scheduling, so the queue holds all
// events below hz; arrivals appended by concurrent bursts necessarily land
// at or beyond hz and are swept at the next decide. The shard's frontier
// advance is recorded by the worker loop under the scheduler lock once the
// burst completes.
func (e *ShardedEngine) burst(s *Shard, hz Cycle) {
	prof := e.profOn
	s.runWindow(hz, e.limit)
	for dst, box := range s.outbox {
		if len(box) == 0 {
			continue
		}
		d := e.shards[dst]
		d.inMu.Lock()
		d.inbox = append(d.inbox, box...)
		d.inMu.Unlock()
		if prof {
			s.inFlushes++
			if s.sent != nil {
				s.sent[dst] += uint64(len(box))
			}
		}
		clear(box)
		s.outbox[dst] = box[:0]
	}
}

// decide advances the run when the pool is quiescent: exactly one worker
// runs it at a time, with the scheduler lock held and no burst in flight,
// so it may touch every shard freely. It either schedules newly safe
// bursts, advances the store-visibility gate (flushing once per occupied
// window), or ends the run (drained, stopped, or cycle limit).
func (e *ShardedEngine) decide(st *wmState) {
	prof := e.profOn
	if e.stopReq.Load() {
		st.done = true
		st.cond.Broadcast()
		return
	}
	n := len(e.shards)
	// Sweep parked mailbox arrivals into the queues so next-event times are
	// exact, and find the min / second-min next-event times. The pool is
	// quiescent and every producer released the scheduler lock after its
	// burst, so a plain length read of a peer mailbox is ordered; only
	// nonempty mailboxes pay a lock. m1/a1 is the earliest event anywhere,
	// m2 the earliest on any other shard.
	pending := false
	m1, m2 := noCap, noCap
	a1 := -1
	for i, s := range e.shards {
		if len(s.inbox) > 0 {
			s.drainInbox(prof)
		}
		t, ok := s.nextAt()
		e.nextS[i], e.hasS[i] = t, ok && !s.stopped
		if !e.hasS[i] {
			continue
		}
		pending = true
		if t < m1 || a1 < 0 {
			m1, m2, a1 = t, m1, i
		} else if t < m2 {
			m2 = t
		}
	}
	if prof {
		e.wmSolves++
		e.wmSolveOp += uint64(n) // sweep + next-event scan
	}
	if !pending {
		st.done = true
		st.cond.Broadcast()
		return
	}
	cap := noCap
	if e.limit != 0 {
		cap = e.limit + 1
	}
	if e.limit != 0 && m1 > e.limit {
		st.done, st.err = true, ErrLimit
		st.cond.Broadcast()
		return
	}
	if e.flush != nil && m1 >= e.wmGate {
		// Every event below the gate has executed and no shard is running:
		// the flush is race-free and content-identical to the sequential
		// engine's flush on entering m1's window.
		e.flush()
		win := m1 / e.window
		e.curWin = win
		e.wmGate = (win + 1) * e.window
		e.wmGateAdv++
	}
	eff := cap
	if e.flush != nil && e.wmGate < eff {
		eff = e.wmGate
	}
	if e.look != nil && !e.look.tri {
		e.decideFixpoint(st, eff, m1)
		return
	}
	// Direct solve. With a triangle-inequality matrix a relayed promise
	// never beats the direct pair bound, and committed frontiers never
	// exceed a holder's next-event time, so the null-message fixpoint is
	// simply
	//
	//	hz[b] = min(eff, next[b]+rt[b], min over holders a != b of next[a]+L[a][b])
	//
	// where rt[b] is b's minimum round trip through any peer (2W uniform).
	// The self term bounds echo chains rooted at b's OWN events: an event b
	// executes at t >= next[b] can trigger a peer delivery whose handler
	// sends back to b, landing no earlier than t + rt[b] (longer relays
	// b->c->..->b fold onto the best two-hop round trip by the triangle
	// inequality) — exactly the bound the iterative fixpoint enforces by
	// stalling holders' frontiers at their next-event times. Without it a
	// shard whose peers hold no events would see an unbounded horizon,
	// execute far-future events, and later receive the echo below its
	// committed frontier. Uniform lookahead reduces the holder scan to
	// min/second-min in O(1) per shard.
	st.tasks = st.tasks[:0]
	st.head = 0
	steps := 0
	for b := range e.shards {
		if !e.hasS[b] {
			continue
		}
		var hz Cycle
		if e.look == nil {
			steps++
			bound := m1
			if b == a1 {
				bound = m2
			}
			hz = bound + e.window
			if n > 1 {
				if v := e.nextS[b] + 2*e.window; v < hz {
					hz = v
				}
			}
		} else {
			hz = e.nextS[b] + e.look.rt[b]
			for a := range e.shards {
				if a == b || !e.hasS[a] {
					continue
				}
				steps++
				if v := e.nextS[a] + e.look.at(a, b); v < hz {
					hz = v
				}
			}
		}
		if hz > eff {
			hz = eff
		}
		if e.nextS[b] < hz {
			st.tasks = append(st.tasks, wmTask{shard: b, hz: hz})
		}
	}
	if prof {
		e.wmSolveOp += uint64(steps)
	}
	if len(st.tasks) == 0 {
		// Unreachable: the m1 holder's bound is at least min(m2+L, m1+rt),
		// both > m1, and the limit/gate checks above ensured eff > m1.
		panic("sim: watermark scheduler stalled with pending work (lookahead bug)")
	}
	st.cond.Broadcast()
}

// decideFixpoint is decide's fallback for lookahead matrices that violate
// the triangle inequality: a multi-hop chain of promises may then bound a
// horizon tighter than any direct pair, so horizons are solved iteratively
// over the persistent frontier array. Each round lets every shard promise
// silence up to min(horizon, next event) — Chandy-Misra-Bryant null
// messages solved centrally — and Gauss-Seidel iteration (each shard sees
// its predecessors' updated frontiers) converges in a handful of rounds
// because event-holding shards jump straight to their next-event time.
// minNext (= the earliest event anywhere) is below eff: decide already
// handled the limit and the gate.
func (e *ShardedEngine) decideFixpoint(st *wmState, eff, minNext Cycle) {
	prof := e.profOn
	n := len(e.shards)
	for {
		changed := false
		for b := range e.shards {
			hz := eff
			for a := range e.shards {
				if a == b {
					continue
				}
				if v := e.frS[a] + e.look.at(a, b); v < hz {
					hz = v
				}
			}
			e.hzS[b] = hz
			target := hz
			if e.hasS[b] && e.nextS[b] < target {
				target = e.nextS[b]
			}
			if target > e.frS[b] {
				e.frS[b] = target
				changed = true
			}
		}
		if prof {
			e.wmSolveOp += uint64(n)
		}
		if !changed {
			break
		}
	}
	st.tasks = st.tasks[:0]
	st.head = 0
	for b := range e.shards {
		if e.hasS[b] && e.nextS[b] < e.hzS[b] {
			st.tasks = append(st.tasks, wmTask{shard: b, hz: e.hzS[b]})
		}
	}
	if len(st.tasks) == 0 {
		// Unreachable: at the fixpoint the minNext holder's frontier stalls
		// at minNext < eff, so every other frontier exceeds minNext's pair
		// bound and the holder's own horizon exceeds minNext.
		panic("sim: watermark scheduler stalled with pending work (lookahead bug)")
	}
	st.cond.Broadcast()
}
