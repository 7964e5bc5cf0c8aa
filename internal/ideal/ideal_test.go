package ideal

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// rig builds a two-node ideal machine by hand (core would be a circular
// import) with scripted reference streams.
type rig struct {
	eng  *sim.Engine
	net  *network.Network
	ctls [2]*Controller
	cpus [2]*cpu.CPU
}

type script struct {
	refs []cpu.Ref
	i    int
}

func (s *script) NextBatch() ([]cpu.Ref, bool) {
	if s.i >= len(s.refs) {
		return nil, false
	}
	b := s.refs[s.i : s.i+1]
	s.i++
	return b, true
}
func (s *script) ReadDone() {}

func newRig(t *testing.T, refs [2][]cpu.Ref) *rig {
	t.Helper()
	r := buildRig(refs)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// buildRig wires the machine and starts the processors without running it.
func buildRig(refs [2][]cpu.Ref) *rig {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindIdeal
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	cfg.Timing = arch.IdealTiming()
	net := network.New(2, 22)
	r := &rig{eng: sim.NewEngine(), net: net}
	mem := memsys.NewStore(1 << 18)
	for i := 0; i < 2; i++ {
		m := memsys.New(cfg.Timing)
		c := New(arch.NodeID(i), r.eng, &cfg, m, net.Port(arch.NodeID(i), r.eng))
		p := cpu.New(arch.NodeID(i), r.eng, &cfg, c, memsys.NewView(mem))
		c.Attach(p)
		net.Attach(arch.NodeID(i), c)
		r.ctls[i] = c
		r.cpus[i] = p
		p.SetSource(&script{refs: refs[i]})
		p.Start()
	}
	return r
}

// homeEntry decodes the oracle directory entry of a, a line homed at node 0.
func (r *rig) homeEntry(a arch.Addr) protocol.DirInfo {
	var d protocol.DirInfo
	r.ctls[0].DecodeInto(r.ctls[0].Cfg.LocalLine(a), &d)
	return d
}

func TestIdealLocalRead(t *testing.T) {
	r := newRig(t, [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x1000}},
		nil,
	})
	e := r.homeEntry(0x1000)
	if !e.Local || e.Dirty || e.Pending {
		t.Fatalf("dir = %+v, want local clean", e)
	}
	if r.cpus[0].Stats.ReadStall != 24 {
		t.Fatalf("local read latency = %d, want 24", r.cpus[0].Stats.ReadStall)
	}
}

func TestIdealRemoteWriteOwnership(t *testing.T) {
	r := newRig(t, [2][]cpu.Ref{
		nil,
		{{Kind: arch.RefWrite, Addr: 0x2000}}, // node 1 writes node 0's line
	})
	e := r.homeEntry(0x2000)
	if !e.Dirty || e.Owner != 1 || e.Pending {
		t.Fatalf("dir = %+v, want dirty owner=1", e)
	}
	if r.cpus[1].Cache.Lookup(arch.Addr(0x2000).Line()) != cpu.Modified {
		t.Fatal("writer's cache not Modified")
	}
}

func TestIdealInvalidationOnWrite(t *testing.T) {
	// Node 1 reads (shared), then node 0 writes: node 1 must be
	// invalidated and acks collected.
	r := buildRig([2][]cpu.Ref{
		{{Kind: arch.RefWrite, Addr: 0x3000, Busy: 4000}},
		{{Kind: arch.RefRead, Addr: 0x3000}},
	})
	var sent trace.Buffer
	r.net.Port(0, nil).Tr = trace.New(&sent)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	e := r.homeEntry(0x3000)
	if !e.Dirty || e.Owner != 0 || e.Pending || e.Acks != 0 {
		t.Fatalf("dir = %+v, want dirty owner=0 quiesced", e)
	}
	if r.cpus[1].Cache.Lookup(arch.Addr(0x3000).Line()) != cpu.Invalid {
		t.Fatal("old sharer not invalidated")
	}
	invals := 0
	for _, ev := range sent.Events {
		if ev.Kind == trace.KindMsgSend && ev.Name == arch.MsgINVAL.String() {
			invals++
		}
	}
	if invals != 1 {
		t.Fatalf("node 0 sent %d INVALs, want 1", invals)
	}
}

func TestIdealThreeHopRead(t *testing.T) {
	// Node 1 writes node 0's line; node 0 then reads it back: a forwarded
	// request, a sharing writeback, and both nodes end up sharers.
	r := newRig(t, [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x4000, Busy: 4000}},
		{{Kind: arch.RefWrite, Addr: 0x4000}},
	})
	e := r.homeEntry(0x4000)
	if e.Dirty || e.Pending {
		t.Fatalf("dir = %+v, want clean after sharing writeback", e)
	}
	if !e.Local {
		t.Fatal("reader (home) not recorded")
	}
	found := false
	for _, s := range e.Sharers {
		if s == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("old owner not recorded as sharer")
	}
	if r.cpus[1].Cache.Lookup(arch.Addr(0x4000).Line()) != cpu.Shared {
		t.Fatal("old owner's copy not downgraded to Shared")
	}
}
