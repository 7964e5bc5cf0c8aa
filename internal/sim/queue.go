package sim

import (
	"fmt"
	"math/bits"
)

// The calendar ring is sized by the measured scheduling distance, not by the
// farthest event: across the seven applications at 16 processors 99.0 % of
// 24.9 M future events are scheduled under 64 cycles ahead (97.1 % on the
// worst, os) and the farthest 867 (MP3D scale 2: 5.96 M under 16, 3.41 M in
// [16,64), 1.7 k in [64,256), 2.2 k in [256,1024)). 256 slots hold all but
// a few per ten thousand within one rotation in a 2 KB table per queue;
// MP3D runs as fast on 64 slots as on 1024, so there is nothing to tune.
const (
	ringSize  = 256
	ringMask  = ringSize - 1
	ringWords = ringSize / 64
)

// node is one queued event, linked by slab index into its slot's list.
// Index 0 is the nil link (the slab's first element is never used), so the
// zero queue is empty and ready.
type node struct {
	at   Cycle
	key  Key // dispatch order among events at the same cycle; see package doc
	fn   func()
	next int32
}

// queue is one node's event population: the calendar ring of future events,
// the same-cycle FIFO, the clock, and the dispatch loop over them. The
// sequential Engine embeds one and each Shard of the parallel engine its
// own, which is where both get the Now/At/After half of Scheduler.
type queue struct {
	now     Cycle
	seq     uint64
	stopped bool

	// Executed counts events dispatched since construction or Reset; useful
	// as a progress and runaway-simulation guard.
	Executed uint64

	nodes []node // slab; free nodes chain through next from free
	free  int32
	head  [ringSize]int32 // slot = cycle & ringMask; list in event order
	tail  [ringSize]int32
	occ   [ringWords]uint64 // bit per nonempty slot
	n     int               // events in the ring

	fifo    []func() // events scheduled for the current cycle, in order
	fifoPos int      // next undispatched fifo entry
	hiWater int      // deepest the ring ever grew (self-profiling)
}

// Now returns this node's clock: the cycle of its last dispatched event.
func (q *queue) Now() Cycle { return q.now }

// After schedules fn d cycles from now.
func (q *queue) After(d Cycle, fn func()) { q.At(q.now+d, fn) }

// At schedules fn at absolute cycle t. Scheduling in the past (t < now)
// panics: it always indicates a model bug. Scheduling at exactly now takes
// the FIFO fast path: no slot, no key assignment.
func (q *queue) At(t Cycle, fn func()) {
	if t <= q.now {
		if t == q.now {
			q.fifo = append(q.fifo, fn)
			return
		}
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, q.now))
	}
	q.push(t, q.Reserve(), fn)
}

// Reserve takes the key the next local scheduled now would get.
func (q *queue) Reserve() Key {
	q.seq++
	return Key{q.now, localKeyBit | q.seq}
}

// AtKey schedules fn at cycle t under the reserved key k; t <= now panics.
func (q *queue) AtKey(t Cycle, k Key, fn func()) {
	if t <= q.now {
		panic(fmt.Sprintf("sim: reserved event at %d not after now %d", t, q.now))
	}
	q.push(t, k, fn)
}

// deliver enqueues a message arriving at cycle arrive that runs at cycle at
// under key k.
func (q *queue) deliver(arrive, at Cycle, k Key, fn func()) {
	if arrive <= q.now {
		panic(fmt.Sprintf("sim: delivery at %d not after now %d", arrive, q.now))
	}
	q.push(at, k, fn)
}

// push links a future event into its slot's ordered list. Nearly every push
// appends — local keys grow with the clock — and only an event sorting ahead
// of one queued for its cycle, or a near event sharing a slot with a far
// one, walks the list.
func (q *queue) push(at Cycle, key Key, fn func()) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, node{})
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{})
	}
	q.nodes[i] = node{at: at, key: key, fn: fn}
	if q.n++; q.n > q.hiWater {
		q.hiWater = q.n
	}
	s := at & ringMask
	t := q.tail[s]
	if t == 0 {
		q.head[s], q.tail[s] = i, i
		q.occ[s>>6] |= 1 << (s & 63)
		return
	}
	if q.nodes[t].before(at, key) {
		q.nodes[t].next, q.tail[s] = i, i
		return
	}
	prev := int32(0)
	for c := q.head[s]; q.nodes[c].before(at, key); c = q.nodes[c].next {
		prev = c
	}
	if prev == 0 {
		q.nodes[i].next, q.head[s] = q.head[s], i
	} else {
		q.nodes[i].next, q.nodes[prev].next = q.nodes[prev].next, i
	}
}

// before reports whether n dispatches before an event with (at, key).
func (n *node) before(at Cycle, key Key) bool {
	return n.at < at || n.at == at && (n.key.sched < key.sched || n.key.sched == key.sched && n.key.tie < key.tie)
}

// pop unlinks slot s's head h and returns its callback.
func (q *queue) pop(s Cycle, h int32) func() {
	nd := &q.nodes[h]
	fn := nd.fn
	if q.head[s] = nd.next; nd.next == 0 {
		q.tail[s] = 0
		q.occ[s>>6] &^= 1 << (s & 63)
	}
	nd.fn, nd.next = nil, q.free // release the closure
	q.free = h
	q.n--
	return fn
}

// nextRing returns the cycle of the earliest event in the ring. Occupied
// slots are visited in rotation order from the current one; the first whose
// head is due in this rotation is the answer, because every slot passed over
// holds only events a full rotation or more away. With nothing due within
// the rotation the earliest head overall wins.
func (q *queue) nextRing() (Cycle, bool) {
	if q.n == 0 {
		return 0, false
	}
	start := q.now & ringMask
	best := ^Cycle(0)
	for k := Cycle(0); k <= ringWords; k++ {
		w := (start>>6 + k) % ringWords
		b := q.occ[w]
		if k == 0 {
			b &= ^uint64(0) << (start & 63)
		} else if k == ringWords {
			b &= 1<<(start&63) - 1
		}
		for ; b != 0; b &= b - 1 {
			s := w<<6 + Cycle(bits.TrailingZeros64(b))
			at := q.nodes[q.head[s]].at
			if at == q.now+(s-start)&ringMask {
				return at, true
			}
			if at < best {
				best = at
			}
		}
	}
	return best, true
}

// nextAt returns the cycle of the earliest undispatched event, if any.
func (q *queue) nextAt() (Cycle, bool) {
	if q.fifoPos < len(q.fifo) {
		return q.now, true
	}
	return q.nextRing()
}

// pending reports the number of undispatched events in this queue.
func (q *queue) pending() int { return q.n + len(q.fifo) - q.fifoPos }

// reset discards all events and rewinds the clock to cycle 0, keeping the
// slab and fifo capacity (push regrows the truncated slab inside it) and the
// hiWater profiling high-mark.
func (q *queue) reset() {
	q.now, q.seq, q.Executed, q.stopped = 0, 0, 0, false
	clear(q.nodes) // release the closures
	q.nodes, q.free, q.n = q.nodes[:0], 0, 0
	q.head, q.tail, q.occ = [ringSize]int32{}, [ringSize]int32{}, [ringWords]uint64{}
	clear(q.fifo)
	q.fifo, q.fifoPos = q.fifo[:0], 0
}

// run is the dispatch loop of both engines: ring events due at the current
// cycle first (deliveries by the key rule, locals because they were
// scheduled before the cycle became current), then the same-cycle FIFO, then
// the clock advances to the next event while that lies before end and, when
// lim is nonzero, not beyond lim — never to a cycle that will not execute.
// It returns when stopped, drained, or facing an event outside those bounds.
func (q *queue) run(end, lim Cycle) {
	for !q.stopped {
		s := q.now & ringMask
		if h := q.head[s]; h != 0 && q.nodes[h].at == q.now {
			fn := q.pop(s, h)
			q.Executed++
			fn()
			continue
		}
		if q.fifoPos < len(q.fifo) {
			fn := q.fifo[q.fifoPos]
			q.fifo[q.fifoPos] = nil
			q.fifoPos++
			if q.fifoPos >= 1024 && q.fifoPos*2 >= len(q.fifo) {
				// Compact so a chain of events that keeps scheduling at the
				// current cycle reuses the buffer instead of growing it.
				n := copy(q.fifo, q.fifo[q.fifoPos:])
				clear(q.fifo[n:])
				q.fifo = q.fifo[:n]
				q.fifoPos = 0
			}
			q.Executed++
			fn()
			continue
		}
		// Current cycle drained: recycle the fifo buffer and advance.
		q.fifo = q.fifo[:0]
		q.fifoPos = 0
		t, ok := q.nextRing()
		if !ok || t >= end || (lim != 0 && t > lim) {
			return
		}
		q.now = t
	}
}
