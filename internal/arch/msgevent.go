package arch

// MsgEvent is a reusable engine event that carries a message: what the
// controllers and the network schedule in place of a fresh closure per
// message. Fire is the func() handed to the scheduler; it is bound once, when
// the object is first allocated, and every firing calls the handler the
// object was last armed with. Who may re-arm it, and when, is the business of
// the two owners below.
type MsgEvent struct {
	Msg  Msg
	Fire func()

	run    func(*MsgEvent)
	next   *MsgEvent
	freeAt uint64 // MsgEventFIFO: the sender's cycle from which it may re-arm
}

func (e *MsgEvent) fire() { e.run(e) }

func newMsgEvent() *MsgEvent {
	e := &MsgEvent{}
	e.Fire = e.fire
	return e
}

// MsgEventPool owns the events a node schedules on itself: the handler takes
// the message and retires the object in one step, so the free list never
// holds more than the node had in flight at once (an object is allocated
// only when every other one is in flight). The zero value is an empty pool.
// Not safe for concurrent use: each belongs to one node.
type MsgEventPool struct {
	free *MsgEvent
	n    int
}

// Get arms an event with run and m, allocating only when the list is empty.
func (p *MsgEventPool) Get(run func(*MsgEvent), m Msg) *MsgEvent {
	e := p.free
	if e == nil {
		e = newMsgEvent()
	} else {
		p.free, e.next = e.next, nil
		p.n--
	}
	e.run, e.Msg = run, m
	return e
}

// Take returns the message a fired event carried and retires the event to
// this pool. The caller must not use e afterwards.
func (p *MsgEventPool) Take(e *MsgEvent) Msg {
	e.run = nil
	e.next, p.free = p.free, e
	p.n++
	return e.Msg
}

// Free reports the length of the free list.
func (p *MsgEventPool) Free() int { return p.n }

// MsgEventFIFO owns the events a node sends to OTHER nodes. Such an event
// fires on the destination's shard, possibly on another goroutine, so it is
// never handed over: the destination only reads Msg, and the sender keeps
// the object in send order and re-arms the oldest once its own clock has
// reached that event's freeAt — a cycle by which the event must have fired.
// No lock and no atomic: the engine's own synchronization orders the
// destination's read before the sender's clock can get there (see
// network.Port.Send for the bound). The queue holds what was sent within one
// round trip, never more, whatever the traffic's shape; a pool that moved
// with the message would drain at nodes that send more than they receive.
type MsgEventFIFO struct {
	head, tail *MsgEvent
	n          int
	last       uint64 // latest now seen; a smaller one means the clock was reset
}

// Get arms an event with run and m at the sender's cycle now, reusing the
// oldest sent event if now has reached its freeAt and allocating otherwise.
// A clock that ran backwards (engine Reset or Restore: whatever was in
// flight is gone) frees everything.
func (q *MsgEventFIFO) Get(now, freeAt uint64, run func(*MsgEvent), m Msg) *MsgEvent {
	if now < q.last {
		for e := q.head; e != nil; e = e.next {
			e.freeAt = 0
		}
	}
	q.last = now
	e := q.head
	if e != nil && e.freeAt <= now {
		q.head = e.next
	} else {
		e = newMsgEvent()
		q.n++
	}
	e.run, e.Msg, e.freeAt, e.next = run, m, freeAt, nil
	if q.head == nil {
		q.head = e
	} else {
		q.tail.next = e
	}
	q.tail = e
	return e
}

// Len reports how many events the queue owns, in flight or reusable.
func (q *MsgEventFIFO) Len() int { return q.n }
