package sim

import (
	"sync"
	"time"
)

// This file is the sharded engine's watermark synchronization scheme: the
// conservative replacement for the full window barrier in sharded.go.
//
// Protocol. Every cross-shard delivery takes at least the engine window W
// (the machine's minimum pair transit), so an event on shard a at cycle t
// can put an arrival on any peer no earlier than t + W. When the scheduler
// is quiescent, each shard's next-event time next[a] is exact, and shard b
// may execute every event strictly below its horizon
//
//	hz[b] = min(cap, next[b] + 2W, min over event-holding a != b of next[a] + W)
//
// without ever seeing a late arrival. The peer term bounds arrivals rooted
// at peers' events; the self term bounds echoes of b's own sends (b sends to
// a peer, whose handler replies, landing no earlier than one round trip
// later — longer relays only add transits). Without it a shard whose peers
// hold no events would see an unbounded horizon, execute far-future events,
// and later receive the echo below them. The holder minimum is a min /
// second-min over next-event times, so the solve is O(1) per shard.
// Deliveries stage in the sender's per-destination outbox during a burst
// and are batch-appended to the destination's mailbox (one lock per pair
// touched); the arrival bound guarantees everything appended while a burst
// runs lands at or beyond the receiver's horizon, so bursts never need to
// re-check their mailboxes mid-flight.
//
// Scheduling is cooperative rather than free-running: a small worker pool
// pulls (shard, horizon) bursts from a queue. When the pool quiesces the
// last idle worker runs decide(), which sweeps the nonempty mailboxes,
// snapshots next-event times, solves the horizons above, schedules every
// shard whose horizon uncovered work, and fails over to the
// store-visibility gate, the cycle limit, or termination. Progress:
// whenever events remain below the cap the earliest-event shard is always
// schedulable (its horizon exceeds its own next-event time by at least W),
// so either work is scheduled, the gate advances (one flush per occupied
// window, mirroring the sequential engine's flush-on-window-entry), the
// limit fires, or the run is done — an idle shard with no traffic can never
// stall its peers.
//
// Store visibility. The memsys view flush must stay a global quantum (the
// torture tests pin same-window same-word cross-node writes resolved by
// node-ordered flushing), so the gate wmGate caps every horizon at the next
// unflushed window boundary. decide() advances it only when the pool is
// quiescent and no event below the gate remains — at that point no shard is
// executing, every event below the boundary has run, and the flush is
// race-free and bit-identical in content and order to the sequential
// engine's.
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
	// SyncWatermark is the watermark scheme described above.
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
	if n := len(e.shards); len(e.nextS) != n {
		e.nextS = make([]Cycle, n)
		e.hasS = make([]bool, n)
	}
	prof := e.profOn
	var start time.Time
	if prof {
		e.profWorkers = p
		e.horizonNS = make([]int64, p)
		e.exits = make([]time.Time, p)
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
		e.endRun(start, e.horizonNS)
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
			if prof {
				e.exits[w] = mark
			}
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
			// Retaking the scheduler lock orders the burst's mailbox
			// appends before decide()'s unlocked mailbox length reads.
			st.mu.Lock()
			st.running--
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
// at or beyond hz and are swept at the next decide.
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
	// Solve the horizons of the file comment: the earliest holder other
	// than b is m1, or m2 when b itself holds m1.
	st.tasks = st.tasks[:0]
	st.head = 0
	steps := 0
	for b := range e.shards {
		if !e.hasS[b] {
			continue
		}
		steps++
		bound := m1
		if b == a1 {
			bound = m2
		}
		hz := bound + e.window
		if n > 1 {
			if v := e.nextS[b] + 2*e.window; v < hz {
				hz = v
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
		// Unreachable: the m1 holder's bound is at least min(m2+W, m1+2W),
		// both > m1, and the limit/gate checks above ensured eff > m1.
		panic("sim: watermark scheduler stalled with pending work (lookahead bug)")
	}
	st.cond.Broadcast()
}
