package protocol

import (
	"testing"

	"flashsim/internal/arch"
)

func newBitvecRig(t *testing.T, self arch.NodeID) *handlerRig {
	t.Helper()
	return newRig(t, arch.ProtoBitVector, self)
}

func TestBitvecBuildRejectsLargeMachines(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Protocol = arch.ProtoBitVector
	cfg.Nodes = 64
	if _, err := Build(&cfg); err == nil {
		t.Fatal("64-node bit-vector build must fail")
	}
}

func TestBitvecSharersAndInvalidation(t *testing.T) {
	r := newBitvecRig(t, 0)
	for _, n := range []arch.NodeID{2, 5, 9} {
		sends := r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: n, Req: n}, true)
		if len(sends) != 1 || sends[0].Type != arch.MsgPUT {
			t.Fatalf("GET reply = %+v", sends)
		}
	}
	d := r.dir(testAddr)
	if len(d.Sharers) != 3 {
		t.Fatalf("sharers = %v", d.Sharers)
	}
	sends := r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 5, Req: 5}, true)
	var invals []arch.NodeID
	for _, s := range sends {
		if s.Type == arch.MsgINVAL {
			invals = append(invals, s.Dst)
		}
	}
	// ffs walks lowest-first: nodes 2 then 9 (5 is the requester).
	if len(invals) != 2 || invals[0] != 2 || invals[1] != 9 {
		t.Fatalf("invals = %v, want [2 9]", invals)
	}
	d = r.dir(testAddr)
	if !d.Dirty || d.Owner != 5 || d.Acks != 2 || !d.Pending {
		t.Fatalf("dir = %+v", d)
	}
	for i := 0; i < 2; i++ {
		r.deliver(arch.Msg{Type: arch.MsgIACK, Addr: testAddr, Src: 2}, true)
	}
	if d := r.dir(testAddr); d.Pending {
		t.Fatal("pending stuck after acks")
	}
}

func TestBitvecLocalBitOnLocalMiss(t *testing.T) {
	r := newBitvecRig(t, 3)
	addr := r.cfg.NodeBase(3) + 0x4000 // homed at node 3
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: addr, Src: 3, Req: 3}, false)
	d := r.dir(addr)
	if len(d.Sharers) != 1 || d.Sharers[0] != 3 {
		t.Fatalf("own presence bit not set: %v", d.Sharers)
	}
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: addr, Src: 3, Req: 3}, false)
	if d := r.dir(addr); len(d.Sharers) != 0 {
		t.Fatalf("hint did not clear presence: %v", d.Sharers)
	}
}

func TestBitvecOwnershipTransfer(t *testing.T) {
	r := newBitvecRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 2, Req: 2}, true)
	sends := r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 7, Req: 7}, true)
	if len(sends) != 1 || sends[0].Type != arch.MsgFwdGETX || sends[0].Dst != 2 {
		t.Fatalf("sends = %+v", sends)
	}
	r.deliver(arch.Msg{Type: arch.MsgXFER, Addr: testAddr, Src: 2, Req: 7}, true)
	d := r.dir(testAddr)
	if !d.Dirty || d.Owner != 7 || d.Pending {
		t.Fatalf("dir = %+v", d)
	}
	// The old owner's presence bit moved to the new owner.
	if len(d.Sharers) != 1 || d.Sharers[0] != 7 {
		t.Fatalf("presence after transfer = %v", d.Sharers)
	}
}

func TestBitvecWritebackClearsOwner(t *testing.T) {
	r := newBitvecRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 4, Req: 4}, true)
	r.deliver(arch.Msg{Type: arch.MsgWB, Addr: testAddr, Src: 4}, true)
	d := r.dir(testAddr)
	if d.Dirty || len(d.Sharers) != 0 {
		t.Fatalf("dir = %+v", d)
	}
}

// TestBitvecUsesFFS verifies the invalidation fan-out actually executes
// find-first-set (the showcase special instruction).
func TestBitvecUsesFFS(t *testing.T) {
	r := newBitvecRig(t, 0)
	for _, n := range []arch.NodeID{1, 2} {
		r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: n, Req: n}, true)
	}
	before := r.pp.Stats.Special
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 9, Req: 9}, true)
	if r.pp.Stats.Special == before {
		t.Fatal("no special instructions executed in the fan-out")
	}
}
