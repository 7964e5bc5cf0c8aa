package network

import (
	"fmt"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/sim"
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
