package arch

import "testing"

func TestMsgEventPoolRecycles(t *testing.T) {
	var p MsgEventPool
	var got []Msg
	run := func(e *MsgEvent) { got = append(got, p.Take(e)) }
	a := p.Get(run, Msg{Aux: 1})
	b := p.Get(run, Msg{Aux: 2}) // a is still in flight: a second object
	if a == b || p.Free() != 0 {
		t.Fatalf("two events in flight share an object (free %d)", p.Free())
	}
	a.Fire()
	b.Fire()
	if len(got) != 2 || got[0].Aux != 1 || got[1].Aux != 2 || p.Free() != 2 {
		t.Fatalf("fired %v, free %d", got, p.Free())
	}
	if c := p.Get(run, Msg{Aux: 3}); c != b || p.Free() != 1 {
		t.Fatalf("Get did not reuse the last retired event (free %d)", p.Free())
	}
}

// TestMsgEventFIFOGatesReuseOnTheClock pins the sender-owned queue: an event
// is re-armed only once the sender's clock has reached its freeAt, in send
// order (an unexpired head blocks younger ones — it only costs an object),
// and a clock that ran backwards frees everything.
func TestMsgEventFIFOGatesReuseOnTheClock(t *testing.T) {
	var q MsgEventFIFO
	var fired []uint32
	run := func(e *MsgEvent) { fired = append(fired, e.Msg.Aux) }
	a := q.Get(10, 60, run, Msg{Aux: 1})
	b := q.Get(12, 40, run, Msg{Aux: 2}) // arrives before a, sent after it
	if c := q.Get(50, 90, run, Msg{Aux: 3}); c == a || c == b || q.Len() != 3 {
		t.Fatalf("at 50 the head is in flight until 60, yet an event was reused (len %d)", q.Len())
	}
	a.Fire()
	b.Fire()
	if d := q.Get(60, 100, run, Msg{Aux: 4}); d != a {
		t.Fatal("at 60 the oldest event was not reused")
	}
	if e := q.Get(60, 100, run, Msg{Aux: 5}); e != b || q.Len() != 3 {
		t.Fatalf("the next oldest (free since 40) was not reused (len %d)", q.Len())
	}
	// Reset: the clock restarts, whatever was in flight is gone.
	if f := q.Get(5, 50, run, Msg{Aux: 6}); q.Len() != 3 || f.Msg.Aux != 6 {
		t.Fatalf("after the clock ran backwards Get allocated (len %d)", q.Len())
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired %v", fired)
	}
}
