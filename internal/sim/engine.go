// Package sim provides the deterministic discrete-event simulation kernel
// that underlies the FLASH system simulator. Components schedule closures at
// future cycle times; an engine runs them in an order fixed by what was
// scheduled, so simulations are bit-for-bit reproducible across runs.
//
// All times are expressed in 10 ns system clock cycles (the 100 MHz MAGIC
// clock of the paper).
//
// Two engines implement the same reference semantics behind the Backend
// interface: the sequential Engine in this file, and the conservative
// parallel ShardedEngine in sharded.go. Both sort events by (cycle, the
// cycle they count as scheduled in, key):
//
//   - a local event counts as scheduled at the clock's cycle, with key =
//     1<<63 | localSeq (insertion order); Reserve takes such a key now and
//     AtKey spends it later, where an At at the reservation would have been;
//   - a plain delivery (Deliver) counts as scheduled at cycle 0, with key =
//     src<<40 | sendSeq, so at a given cycle it dispatches before every
//     local, in (source node, per-source send order);
//   - a settled delivery (DeliverSettled: arrival at cycle a, work d cycles
//     later) counts as scheduled at a with the same key: the place of the
//     After(d) a plain delivery at a would have made, one event, not two.
//
// This rule is what makes the parallel engine exact: a delivery's place is
// a pure function of (arrival, source, send order), not of when the
// scheduling call happened to interleave with other nodes' calls.
//
// The event queue (queue.go) is a calendar queue: a power-of-two ring of
// per-cycle slots over one slab of index-linked nodes, with an occupancy
// bitmap to find the next nonempty slot. A slot's list is kept in event
// order, so its head is its earliest event and the dispatch test is
// head.cycle == now; an event more than a rotation ahead waits in its slot
// behind nearer ones, which is why far events need no overflow structure.
// Scheduling is an O(1) tail append except for an event sorting ahead of
// one already queued for its cycle (a delivery ahead of locals) or a near
// event sharing a slot with a far one; nodes recycle through a free list, so
// nothing allocates. Events scheduled for the current cycle bypass the ring
// through a same-cycle FIFO and run in insertion order after the ring events
// already queued for that cycle (scheduled earlier, those precede them;
// deliveries never land at the current cycle: network transit is positive).
package sim

import (
	"fmt"
	"time"
)

// Cycle is a point in simulated time, in 10 ns system clock cycles.
type Cycle uint64

// localKeyBit marks a locally scheduled event's key; deliveries keep it
// clear so they order first at a given cycle.
const localKeyBit = uint64(1) << 63

// deliverySeqBits is the width of the per-source send-sequence field in a
// delivery key. 2^40 sends per source and 2^23 sources are far beyond any
// simulated machine.
const deliverySeqBits = 40

// deliveryKey builds the event key for a cross-node delivery.
func deliveryKey(src int, seq uint64) uint64 {
	return uint64(src)<<deliverySeqBits | seq&(1<<deliverySeqBits-1)
}

// Key is an event's place among the events of its cycle: the cycle it
// counts as scheduled in, then its tiebreak (see the package doc).
type Key struct {
	sched Cycle
	tie   uint64
}

// Scheduler is the per-node scheduling surface components program against.
// On the sequential engine every node shares one Scheduler (the Engine
// itself); on the sharded engine each node gets its own shard.
type Scheduler interface {
	// Now returns the current simulated cycle of this node's clock.
	Now() Cycle
	// At schedules fn at absolute cycle t on this node (t >= Now).
	At(t Cycle, fn func())
	// After schedules fn d cycles from now on this node.
	After(d Cycle, fn func())
	// Deliver schedules a cross-node message arrival at cycle `at` on node
	// dst. src and seq (monotonic per source) determine the deterministic
	// dispatch order among same-cycle arrivals; `at` must be strictly in
	// the future — in fact at least one lookahead window away, which the
	// network's positive transit latency guarantees.
	Deliver(at Cycle, src, dst int, seq uint64, fn func())
	// DeliverSettled is Deliver arriving at cycle arrive whose fn runs d
	// cycles later, exactly where an After(d, fn) made by a Deliver at
	// arrive would have run, without the intermediate event.
	DeliverSettled(arrive, d Cycle, src, dst int, seq uint64, fn func())
	// Reserve takes the key a local scheduled now would get.
	Reserve() Key
	// AtKey schedules fn at cycle t (> Now) where an At(t, fn) made at k's
	// Reserve would have run.
	AtKey(t Cycle, k Key, fn func())
	// Stop makes the engine's Run return; immediately for events on this
	// node, at the current window barrier for other shards.
	Stop()
}

// Backend is the machine-level engine surface: a set of per-node Schedulers
// plus the run driver. Both the sequential Engine and the parallel
// ShardedEngine implement it with identical simulated behaviour.
type Backend interface {
	Node(i int) Scheduler
	Run() error
	Stop()
	SetLimit(Cycle)
	// SetQuantum installs the store-visibility quantum: flush is invoked
	// (on the coordinating goroutine) each time the global clock first
	// enters a new window of q cycles. Machines use it to publish per-node
	// write buffers at deterministic points; see memsys.View.
	SetQuantum(q Cycle, flush func())
	Now() Cycle
	ExecutedEvents() uint64
	Pending() int
	// EnableProfiling turns on host-side self-profiling for subsequent Run
	// calls. Purely observational: simulated behaviour is bit-identical
	// with profiling on or off. Call before Run.
	EnableProfiling()
	// Profile returns the host-cost breakdown accumulated by profiled Run
	// calls, or nil when profiling was never enabled.
	Profile() *EngineProfile
	// Reset discards every pending event and returns the clock to cycle 0,
	// as if the engine were freshly constructed. Quantum/flush wiring and
	// profiling accumulation survive. core.Machine.Reset (and Restore)
	// call it to run a built machine again from cycle 0.
	Reset()
}

// Engine is the sequential discrete-event simulator and the reference
// implementation of Backend. The zero value is not usable; create one with
// NewEngine.
type Engine struct {
	queue

	// Limit, when nonzero, aborts Run with ErrLimit once the clock passes it.
	Limit Cycle

	quantum Cycle
	flush   func()
	curWin  Cycle

	profOn bool
	runNS  int64
}

// ErrLimit is returned by Run when the cycle limit is exceeded.
var ErrLimit = fmt.Errorf("sim: cycle limit exceeded")

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns the engine to its freshly constructed state: no pending
// events, clock at 0, executed count cleared. Quantum/flush wiring and
// profiling state are kept so a pooled machine's engine stays configured.
func (e *Engine) Reset() {
	e.queue.reset()
	e.Limit = 0
	e.curWin = 0
}

// Deliver schedules a cross-node message arrival; dst is ignored by the
// sequential engine, which holds every node's events in one queue.
func (e *Engine) Deliver(at Cycle, src, dst int, seq uint64, fn func()) {
	e.deliver(at, at, Key{0, deliveryKey(src, seq)}, fn)
}

// DeliverSettled schedules a settled message arrival; see Scheduler.
func (e *Engine) DeliverSettled(arrive, d Cycle, src, dst int, seq uint64, fn func()) {
	e.deliver(arrive, arrive+d, Key{arrive, deliveryKey(src, seq)}, fn)
}

// Node returns the Scheduler for node i: the engine itself, shared by all
// nodes of a sequential machine.
func (e *Engine) Node(i int) Scheduler { return e }

// SetLimit sets the cycle limit (0 = none); equivalent to assigning Limit.
func (e *Engine) SetLimit(l Cycle) { e.Limit = l }

// ExecutedEvents returns the number of events dispatched since construction.
func (e *Engine) ExecutedEvents() uint64 { return e.Executed }

// SetQuantum installs the store-visibility quantum; see Backend.
func (e *Engine) SetQuantum(q Cycle, flush func()) {
	e.quantum = q
	e.flush = flush
}

// EnableProfiling turns on host-side self-profiling; see Backend. The
// sequential engine's whole run is one window-execution phase, so the
// profile carries the run wall time plus the queue's high-water mark.
func (e *Engine) EnableProfiling() { e.profOn = true }

// Profile returns the host-cost breakdown, nil if profiling is off.
func (e *Engine) Profile() *EngineProfile {
	if !e.profOn {
		return nil
	}
	return &EngineProfile{
		Engine:  "seq",
		Workers: 1,
		RunNS:   e.runNS,
		Shards: []ShardProfile{{
			ExecNS:      e.runNS,
			Executed:    e.Executed,
			HeapHiWater: uint64(e.hiWater),
		}},
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until the queue drains, Stop is called, or the cycle
// limit is exceeded. The limit is checked only when the clock advances (and
// once on entry, for engines already past it): an event at exactly Limit
// still runs; the first advance beyond it aborts. The queue's loop runs one
// store-visibility window at a time, so the flush happens as the clock first
// enters each occupied window, before any of its events.
func (e *Engine) Run() error {
	e.stopped = false
	if e.profOn {
		start := time.Now()
		defer func() { e.runNS += time.Since(start).Nanoseconds() }()
	}
	if e.Limit != 0 && e.now > e.Limit {
		return ErrLimit
	}
	for {
		end := noCap
		if e.quantum != 0 {
			end = (e.curWin + 1) * e.quantum
		}
		e.run(end, e.Limit)
		t, ok := e.nextAt()
		if e.stopped || !ok {
			return nil
		}
		if e.Limit != 0 && t > e.Limit {
			return ErrLimit
		}
		e.curWin = t / e.quantum
		e.flush()
	}
}

// Pending reports the number of undispatched events.
func (e *Engine) Pending() int { return e.pending() }
