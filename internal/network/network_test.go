package network

import (
	"fmt"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

type sink struct {
	got []struct {
		m  arch.Msg
		at sim.Cycle
	}
	eng *sim.Engine
}

func (s *sink) FromNet(m arch.Msg) {
	s.got = append(s.got, struct {
		m  arch.Msg
		at sim.Cycle
	}{m, s.eng.Now()})
}

func TestDeliveryLatencyAndOrder(t *testing.T) {
	eng := sim.NewEngine()
	n := New(2, 22)
	p := n.Port(0, eng)
	s := &sink{eng: eng}
	n.Attach(0, s)
	n.Attach(1, s)

	a := arch.Msg{Type: arch.MsgGET, Dst: 1, Addr: 0x100}
	b := arch.Msg{Type: arch.MsgPUT, Dst: 1, Addr: 0x200, DB: 0}
	eng.At(5, func() { p.Send(5, a) })
	eng.At(6, func() { p.Send(6, b) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.got))
	}
	if s.got[0].at != 27 || s.got[1].at != 28 {
		t.Fatalf("delivery times %d,%d want 27,28", s.got[0].at, s.got[1].at)
	}
	if s.got[0].m.Addr != 0x100 {
		t.Fatal("FIFO order violated")
	}
	if p.Msgs != 2 || p.DataMsgs != 1 || p.ReplyMsgs != 1 {
		t.Fatalf("port stats = %d/%d/%d", p.Msgs, p.DataMsgs, p.ReplyMsgs)
	}
	if n.TotalMsgs() != 2 || n.TotalDataMsgs() != 1 || n.TotalReplyMsgs() != 1 {
		t.Fatalf("network stats = %d/%d/%d", n.TotalMsgs(), n.TotalDataMsgs(), n.TotalReplyMsgs())
	}
}

func TestAvgTransit(t *testing.T) {
	// The paper's figure: 22 cycles for a 16-processor mesh.
	if got := AvgTransitFor(16); got != 22 {
		t.Fatalf("AvgTransitFor(16) = %d, want 22", got)
	}
	if got := AvgTransitFor(64); got < 23 || got > 40 {
		t.Fatalf("AvgTransitFor(64) = %d, implausible", got)
	}
	if got := AvgTransitFor(1); got < 8 || got > 22 {
		t.Fatalf("AvgTransitFor(1) = %d, implausible", got)
	}
}

func TestUnattachedPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(2, 22)
	p := n.Port(0, eng)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send to unattached node did not panic")
		}
		// The message must name the offending node and message type.
		want := fmt.Sprintf("network: send %s to unattached node %d", arch.MsgGET, 1)
		if got, ok := r.(string); !ok || got != want {
			t.Fatalf("panic %q, want %q", r, want)
		}
	}()
	p.Send(0, arch.Msg{Type: arch.MsgGET, Dst: 1})
}

// TestMeshTransit pins the 16-node mesh (a 4x4 grid): neighbours are one
// hop apart, opposite corners six, transit is symmetric, the closest pair
// sets the engine's lookahead, and a mesh Send arrives after exactly the
// pair's transit.
func TestMeshTransit(t *testing.T) {
	m := NewMesh(16)
	if got := m.MinTransit(0, 1); got != 15 {
		t.Errorf("MinTransit(0,1) = %d, want 15", got)
	}
	if got := m.MinTransit(0, 15); got != 35 {
		t.Errorf("MinTransit(0,15) = %d, want 35", got)
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if m.MinTransit(s, d) != m.MinTransit(d, s) {
				t.Fatalf("MinTransit(%d,%d) = %d but MinTransit(%d,%d) = %d",
					s, d, m.MinTransit(s, d), d, s, m.MinTransit(d, s))
			}
		}
	}
	if got := m.MinPairTransit(); got != 15 {
		t.Errorf("MinPairTransit() = %d, want 15", got)
	}

	eng := sim.NewEngine()
	n := New(16, 22)
	n.SetMesh(m)
	s := &sink{eng: eng}
	for i := arch.NodeID(0); i < 16; i++ {
		n.Attach(i, s)
	}
	p := n.Port(0, eng)
	eng.At(5, func() { p.Send(5, arch.Msg{Type: arch.MsgGET, Dst: 15}) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 || s.got[0].at != 5+m.MinTransit(0, 15) {
		t.Fatalf("mesh delivery %+v, want one arrival at %d", s.got, 5+m.MinTransit(0, 15))
	}
}

// TestInboundStage pins the NI inbound stage: the sink sees a message
// inbound cycles after its arrival, in the place an event scheduled at the
// arrival would have had — after the locals scheduled for that cycle before
// the arrival, ahead of those scheduled at or after it — while the recv
// trace event keeps the arrival cycle.
func TestInboundStage(t *testing.T) {
	eng := sim.NewEngine()
	n := New(2, 22)
	var order []string
	s := niSink{func(m arch.Msg) { order = append(order, fmt.Sprintf("sink@%d", eng.Now())) }, 8}
	n.Attach(0, s)
	n.Attach(1, s)
	var buf trace.Buffer
	tr := trace.New(&buf)
	p := n.Port(0, eng)
	p.Tr, n.Port(1, eng).Tr = tr, tr

	local := func(name string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%d", name, eng.Now())) }
	}
	eng.At(2, func() { p.Send(5, arch.Msg{Type: arch.MsgGET, Dst: 1, Addr: 0x100}) }) // arrives 27
	eng.At(26, func() { eng.At(35, local("before")) })
	eng.At(27, func() { eng.At(35, local("after")) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[before@35 sink@35 after@35]" || eng.ExecutedEvents() != 6 {
		t.Fatalf("ran %s in %d events, want [before@35 sink@35 after@35] in 6", got, eng.ExecutedEvents())
	}
	var recv, send []uint64
	for _, ev := range buf.Events {
		switch ev.Kind {
		case trace.KindMsgSend:
			send = append(send, ev.Cycle)
		case trace.KindMsgRecv:
			recv = append(recv, ev.Cycle)
		}
	}
	if len(send) != 1 || send[0] != 5 || len(recv) != 1 || recv[0] != 27 {
		t.Fatalf("send at %v, recv at %v: want [5] and the arrival, [27]", send, recv)
	}
}

// logSink adapts a function to Sink.
type logSink func(arch.Msg)

func (f logSink) FromNet(m arch.Msg) { f(m) }

// niSink is a logSink behind an NI inbound stage of d cycles.
type niSink struct {
	logSink
	d sim.Cycle
}

func (s niSink) NIInbound() sim.Cycle { return s.d }
