package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the trivially correct model the calendar queue is checked
// against: every future event in one slice kept sorted by (at, sched, key)
// — the cycle, the cycle the event counts as scheduled in, the tiebreak —
// the same-cycle FIFO as a second slice, and the dispatch rule written out
// longhand. It shares only the key encoding with the real queue.
type refQueue struct {
	now      Cycle
	seq      uint64
	executed uint64
	stopped  bool
	evs      []refEvent
	fifo     []uint64
	reserved []refKey // keys taken by reserve and not yet spent, oldest first
}

type refKey struct {
	sched Cycle
	key   uint64
}

type refEvent struct {
	at Cycle
	k  refKey
	id uint64
}

func (r *refQueue) insert(at Cycle, k refKey, id uint64) {
	i := sort.Search(len(r.evs), func(i int) bool {
		e := r.evs[i]
		return e.at > at || (e.at == at && (e.k.sched > k.sched || e.k.sched == k.sched && e.k.key > k.key))
	})
	r.evs = append(r.evs, refEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = refEvent{at, k, id}
}

// reserve is the key a local scheduled now would get.
func (r *refQueue) reserve() refKey {
	r.seq++
	return refKey{r.now, localKeyBit | r.seq}
}

func (r *refQueue) at(t Cycle, id uint64) {
	if t == r.now {
		r.fifo = append(r.fifo, id)
		return
	}
	r.insert(t, r.reserve(), id)
}

// deliver is a plain delivery: it counts as scheduled at cycle 0.
func (r *refQueue) deliver(at Cycle, src int, seq uint64, id uint64) {
	r.insert(at, refKey{0, deliveryKey(src, seq)}, id)
}

// settle is a settled delivery: it runs d cycles after its arrival and
// counts as scheduled at the arrival.
func (r *refQueue) settle(arrive, d Cycle, src int, seq uint64, id uint64) {
	r.insert(arrive+d, refKey{arrive, deliveryKey(src, seq)}, id)
}

func (r *refQueue) pending() int { return len(r.evs) + len(r.fifo) }

func (r *refQueue) nextAt() (Cycle, bool) {
	if len(r.fifo) > 0 {
		return r.now, true
	}
	if len(r.evs) > 0 {
		return r.evs[0].at, true
	}
	return 0, false
}

func (r *refQueue) run(end, lim Cycle, fire func(id uint64)) {
	for !r.stopped {
		switch {
		case len(r.evs) > 0 && r.evs[0].at == r.now:
			id := r.evs[0].id
			r.evs = r.evs[1:]
			r.executed++
			fire(id)
		case len(r.fifo) > 0:
			id := r.fifo[0]
			r.fifo = r.fifo[1:]
			r.executed++
			fire(id)
		default:
			if len(r.evs) == 0 {
				return
			}
			t := r.evs[0].at
			if t >= end || (lim != 0 && t > lim) {
				return
			}
			r.now = t
		}
	}
}

// queueDeltas are the scheduling distances the programs draw from: the
// machine's common ones, the measured maximum (867), and the ring's edge
// cases — one short of a rotation, exactly 1x, 2x and 1000x the ring (far
// events sharing a slot with near ones), and their neighbours.
var queueDeltas = [16]Cycle{
	1, 2, 3, 5, 16, 22, 63, 64,
	ringSize - 1, ringSize, ringSize + 1, 2 * ringSize,
	2*ringSize + 3, 1000 * ringSize, 1000*ringSize + 1, 867,
}

// queuePair drives the calendar queue and the reference with one program and
// fails on the first observable difference.
type queuePair struct {
	t        *testing.T
	q        queue
	r        refQueue
	qLog     []uint64
	rLog     []uint64
	nextID   uint64
	sendSeq  [4]uint64
	reserved []Key // the calendar queue's side of r.reserved
}

const queueEventBudget = 3000

func (p *queuePair) newID() uint64 { p.nextID++; return p.nextID }

// Top-level schedule calls go to both sides; what a fired event schedules
// goes only to the side that fired it, and is a pure function of the event's
// id, so the two sides stay in step exactly as long as they dispatch alike.
func (p *queuePair) atBoth(d Cycle) {
	id := p.newID()
	p.q.At(p.q.now+d, p.fireQ(id))
	p.r.at(p.r.now+d, id)
}

func (p *queuePair) deliverBoth(d Cycle, src int) {
	id := p.newID()
	p.sendSeq[src]++
	p.q.deliver(p.q.now+d, p.q.now+d, Key{0, deliveryKey(src, p.sendSeq[src])}, p.fireQ(id))
	p.r.deliver(p.r.now+d, src, p.sendSeq[src], id)
}

// settleBoth is a settled delivery arriving d cycles from now and running
// settle cycles after that.
func (p *queuePair) settleBoth(d, settle Cycle, src int) {
	id := p.newID()
	p.sendSeq[src]++
	qSettle(&p.q, p.q.now+d, settle, src, p.sendSeq[src], p.fireQ(id))
	p.r.settle(p.r.now+d, settle, src, p.sendSeq[src], id)
}

// qSettle is Engine.DeliverSettled on a bare queue.
func qSettle(q *queue, arrive, d Cycle, src int, seq uint64, fn func()) {
	q.deliver(arrive, arrive+d, Key{arrive, deliveryKey(src, seq)}, fn)
}

// reserveBoth takes a key now on both sides; spendBoth schedules an event d
// cycles from now under the oldest key still unspent, if any.
func (p *queuePair) reserveBoth() {
	p.reserved = append(p.reserved, p.q.Reserve())
	p.r.reserved = append(p.r.reserved, p.r.reserve())
}

func (p *queuePair) spendBoth(d Cycle) {
	if len(p.reserved) == 0 {
		return
	}
	id := p.newID()
	p.q.AtKey(p.q.now+d, p.reserved[0], p.fireQ(id))
	p.r.insert(p.r.now+d, p.r.reserved[0], id)
	p.reserved, p.r.reserved = p.reserved[1:], p.r.reserved[1:]
}

// childOp is one thing a fired event does: schedule at the current cycle or
// ahead, send a plain or a settled delivery, reserve a key or spend the
// oldest reserved one, or stop the run.
type childOp struct {
	kind   int // 0 at(now), 1 at(now+d), 2 deliver(now+d), 3 stop, 4 settle(now+d, settle), 5 reserve, 6 spend(now+d)
	d      Cycle
	settle Cycle
	src    int
	id     uint64
}

func mix(x uint64) uint64 { // splitmix64
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// childrenOf is what event id does when it fires, a pure function of id:
// zero to three operations (mean 1.5, so chains grow until the budget
// bites). Child ids are hashes of the parent's; a child delivery's send
// sequence is 40 bits of its id with the top one set, clear of the counters
// top-level deliveries use. A settled delivery's settle delay is 0, the NI
// inbound stage's 8, or one of the deltas.
func childrenOf(id uint64) (ops []childOp) {
	h := mix(id)
	for i := h & 3; i > 0; i-- {
		h = mix(h)
		op := childOp{id: h | 1<<39, d: queueDeltas[h>>8&15], src: int(h >> 12 & 3)}
		switch s := h >> 24 & 3; s {
		case 0:
			op.settle = 0
		case 1:
			op.settle = 8
		default:
			op.settle = queueDeltas[h>>28&15]
		}
		switch k := h >> 16 & 15; {
		case k < 3:
			op.kind = 0
		case k < 8:
			op.kind = 1
		case k < 10:
			op.kind = 2
		case k < 12:
			op.kind = 4
		case k < 13:
			op.kind = 5
		case k < 15:
			op.kind = 6
		default:
			op.kind = 3
		}
		ops = append(ops, op)
	}
	return ops
}

func (p *queuePair) fireQ(id uint64) func() {
	return func() {
		p.qLog = append(p.qLog, id)
		for _, op := range childrenOf(id) {
			if len(p.qLog) > queueEventBudget {
				break
			}
			switch op.kind {
			case 0:
				p.q.At(p.q.now, p.fireQ(op.id))
			case 1:
				p.q.At(p.q.now+op.d, p.fireQ(op.id))
			case 2:
				p.q.deliver(p.q.now+op.d, p.q.now+op.d, Key{0, deliveryKey(op.src, op.id)}, p.fireQ(op.id))
			case 3:
				p.q.stopped = true
			case 4:
				qSettle(&p.q, p.q.now+op.d, op.settle, op.src, op.id, p.fireQ(op.id))
			case 5:
				p.reserved = append(p.reserved, p.q.Reserve())
			case 6:
				if len(p.reserved) > 0 {
					p.q.AtKey(p.q.now+op.d, p.reserved[0], p.fireQ(op.id))
					p.reserved = p.reserved[1:]
				}
			}
		}
	}
}

func (p *queuePair) fireR(id uint64) {
	p.rLog = append(p.rLog, id)
	for _, op := range childrenOf(id) {
		if len(p.rLog) > queueEventBudget {
			break
		}
		switch op.kind {
		case 0:
			p.r.at(p.r.now, op.id)
		case 1:
			p.r.at(p.r.now+op.d, op.id)
		case 2:
			p.r.deliver(p.r.now+op.d, op.src, op.id, op.id)
		case 3:
			p.r.stopped = true
		case 4:
			p.r.settle(p.r.now+op.d, op.settle, op.src, op.id, op.id)
		case 5:
			p.r.reserved = append(p.r.reserved, p.r.reserve())
		case 6:
			if len(p.r.reserved) > 0 {
				p.r.insert(p.r.now+op.d, p.r.reserved[0], op.id)
				p.r.reserved = p.r.reserved[1:]
			}
		}
	}
}

func (p *queuePair) runBoth(end, lim Cycle) {
	p.q.stopped, p.r.stopped = false, false // as Engine.Run does on entry
	p.q.run(end, lim)
	p.r.run(end, lim, p.fireR)
}

func (p *queuePair) check(step int, what string) {
	p.t.Helper()
	if len(p.qLog) != len(p.rLog) {
		p.t.Fatalf("step %d (%s): dispatched %d events, reference %d", step, what, len(p.qLog), len(p.rLog))
	}
	for i := range p.qLog {
		if p.qLog[i] != p.rLog[i] {
			p.t.Fatalf("step %d (%s): dispatch %d is event %d, reference %d", step, what, i, p.qLog[i], p.rLog[i])
		}
	}
	if p.q.now != p.r.now || p.q.Executed != p.r.executed || p.q.pending() != p.r.pending() || p.q.stopped != p.r.stopped {
		p.t.Fatalf("step %d (%s): now/executed/pending/stopped = %d/%d/%d/%v, reference %d/%d/%d/%v", step, what,
			p.q.now, p.q.Executed, p.q.pending(), p.q.stopped, p.r.now, p.r.executed, p.r.pending(), p.r.stopped)
	}
	qt, qok := p.q.nextAt()
	rt, rok := p.r.nextAt()
	if qt != rt || qok != rok {
		p.t.Fatalf("step %d (%s): nextAt = %d,%v, reference %d,%v", step, what, qt, qok, rt, rok)
	}
}

// runQueueProgram interprets prog against both queues. Each opcode byte may
// take one operand byte; a truncated program just ends.
func runQueueProgram(t *testing.T, prog []byte) {
	p := &queuePair{t: t}
	arg := func(i *int) byte {
		*i++
		if *i < len(prog) {
			return prog[*i]
		}
		return 0
	}
	for i := 0; i < len(prog) && p.nextID < queueEventBudget; i++ {
		what := ""
		switch op := prog[i] % 10; op {
		case 0: // local event, possibly at now (the FIFO) when the top bit is set
			a := arg(&i)
			d := queueDeltas[a%16]
			if a&0x80 != 0 {
				d = 0
			}
			what = fmt.Sprintf("at +%d", d)
			p.atBoth(d)
		case 1: // delivery
			a := arg(&i)
			what = fmt.Sprintf("deliver +%d from %d", queueDeltas[a%16], a>>6)
			p.deliverBoth(queueDeltas[a%16], int(a>>6))
		case 2:
			what = "run"
			p.runBoth(noCap, 0)
		case 3: // a window: events strictly before now+d
			d := queueDeltas[arg(&i)%16]
			what = fmt.Sprintf("run to +%d", d)
			p.runBoth(p.q.now+d, 0)
		case 4: // a limit at, one short of, or one past the next event
			a := arg(&i)
			lim := p.q.now + queueDeltas[a%16]
			if next, ok := p.r.nextAt(); ok && a&0x80 != 0 {
				lim = next + Cycle(a>>4&3) - 1
			}
			if lim == 0 {
				lim = 1
			}
			what = fmt.Sprintf("run limit %d", lim)
			p.runBoth(noCap, lim)
		case 5:
			what = "reset"
			p.q.reset()
			p.r = refQueue{}
			p.qLog, p.rLog, p.reserved = p.qLog[:0], p.rLog[:0], nil
		case 6: // several sources at one cycle, behind locals queued for it
			d := queueDeltas[arg(&i)%16]
			what = fmt.Sprintf("crowd +%d", d)
			p.atBoth(d)
			p.deliverBoth(d, 3)
			p.deliverBoth(d, 0)
			p.atBoth(d)
			p.deliverBoth(d, 1)
		case 7: // one dispatch step's worth: a window ending just past now
			what = "run this cycle"
			p.runBoth(p.q.now+1, 0)
		case 8: // settled delivery: arrival +d, settle from the high bits
			a := arg(&i)
			settle := [4]Cycle{0, 1, 8, 22}[a>>6]
			what = fmt.Sprintf("settle +%d+%d from %d", queueDeltas[a%16], settle, a>>4&3)
			p.settleBoth(queueDeltas[a%16], settle, int(a>>4&3))
		case 9: // reserve a key now (top bit set) or spend the oldest at +d
			a := arg(&i)
			if a&0x80 != 0 {
				what = "reserve"
				p.reserveBoth()
			} else {
				what = fmt.Sprintf("spend at +%d", queueDeltas[a%16])
				p.spendBoth(queueDeltas[a%16])
			}
		}
		p.check(i, what)
	}
	p.runBoth(noCap, 0)
	p.check(len(prog), "final drain")
	p.runBoth(noCap, 0) // a stop may have ended the drain early
	p.check(len(prog), "second drain")
}

// queueCorpus is the seed corpus: one program per situation the calendar
// queue handles differently from a heap.
var queueCorpus = [][]byte{
	// Same-cycle deliveries inserted after locals; several sources per cycle.
	{6, 5, 6, 5, 2},
	// Events 1x, 2x and 1000x the ring ahead sharing a slot with near ones.
	{0, 9, 0, 11, 0, 13, 0, 9, 1, 9, 0, 0, 2},
	{0, 13, 0, 0, 0, 1, 7, 7, 0, 13, 3, 9, 2},
	// nextAt with only far events pending, then near ones arriving.
	{0, 13, 0, 14, 1, 13, 0, 2, 7, 2},
	// Limit exactly at, one short of and one past an event.
	{0, 5, 0, 6, 4, 0x80 | 0x10, 4, 0x80, 4, 0x80 | 0x20, 2},
	{0, 9, 4, 0x80 | 0x10, 0, 10, 4, 0x80 | 0x20, 2},
	// FIFO-at-now interleaved with due slot events.
	{0, 0, 0, 0x80, 0, 0, 7, 0, 0x80, 6, 0, 7, 7, 2},
	// Reset with far and near events pending, then reuse.
	{0, 13, 0, 1, 6, 9, 5, 0, 2, 1, 0x43, 2, 5, 5, 0, 9, 2},
	// Windows that end inside, at and beyond a rotation.
	{6, 8, 6, 9, 6, 10, 3, 8, 3, 1, 3, 11, 2},
	// A settled delivery behind locals scheduled before its arrival and
	// ahead of those scheduled at or after it, with and without a settle.
	{0, 5, 8, 0x80 | 1, 7, 7, 0, 3, 0, 0x80, 8, 1, 2},
	{9, 0x80, 0, 4, 9, 0x80, 9, 5, 0, 5, 9, 5, 8, 0x40 | 1, 2},
	// Keys reserved before and after a run, spent behind and ahead of
	// locals and settled deliveries at the same cycle.
	{9, 0x80, 0, 1, 7, 9, 0x80, 0, 2, 9, 4, 9, 4, 8, 0x80 | 2, 2},
}

// FuzzQueueOrder drives the calendar queue and the sorted-slice reference
// with arbitrary at/deliver/settle/reserve/run/reset programs and asserts identical
// dispatch order, Pending, nextAt, Executed and Now after every step. go
// test runs the seed corpus; make verify fuzzes for a bounded time.
func FuzzQueueOrder(f *testing.F) {
	for _, prog := range queueCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		runQueueProgram(t, prog)
	})
}

// TestQueueMatchesSortedReference is the differential test proper: seeded
// random programs, long enough that the slab recycles, the ring wraps many
// times and the clock jumps across idle rotations.
func TestQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n < 300; n++ {
		prog := make([]byte, 20+rng.Intn(400))
		rng.Read(prog)
		runQueueProgram(t, prog)
	}
}

// TestQueueResetKeepsCapacity pins the pooling contract: Reset drops every
// event and closure but keeps the slab, so a recycled engine schedules
// without allocating.
func TestQueueResetKeepsCapacity(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	fill := func() {
		for i := 1; i <= 200; i++ {
			e.At(Cycle(i*7), fn)
		}
	}
	fill()
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: pending %d now %d", e.Pending(), e.Now())
	}
	for i := range e.nodes[:cap(e.nodes)][:201] {
		if e.nodes[:cap(e.nodes)][i].fn != nil {
			t.Fatalf("slab node %d keeps its closure across Reset", i)
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		fill()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Reset()
	}); a != 0 {
		t.Fatalf("scheduling on a recycled engine allocates %.0f times per run", a)
	}
}
