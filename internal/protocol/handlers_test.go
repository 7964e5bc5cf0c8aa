package protocol

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/ppsim"
)

// handlerRig executes protocol handlers directly against a PP with a
// recording environment, bypassing the full machine: a unit-test harness
// for the assembly.
type handlerRig struct {
	t    *testing.T
	pp   *ppsim.PP
	lay  Layout
	cfg  arch.Config
	env  *recEnv
	self arch.NodeID
}

type sentMsg struct {
	Type arch.MsgType
	Addr arch.Addr
	Dst  arch.NodeID
	Req  arch.NodeID
	Aux  uint64
	PI   bool
	Data bool
}

type recEnv struct {
	sends    []sentMsg
	memReads []uint64
	memWrts  []uint64
	pcKind   uint64 // response handed to WAITPC (1 = dirty data)
	pp       *ppsim.PP
}

func (e *recEnv) TrySend(h ppsim.OutHeader, dt uint64) bool {
	e.sends = append(e.sends, sentMsg{
		Type: arch.MsgType(h.Type),
		Addr: arch.Addr(h.Addr),
		Dst:  arch.NodeID(h.Dst),
		Req:  arch.NodeID(h.Req),
		Aux:  h.Aux,
		PI:   h.Iface == ppisa.SendPI,
		Data: h.Data,
	})
	return true
}
func (e *recEnv) MemRead(a, dt uint64)                        { e.memReads = append(e.memReads, a) }
func (e *recEnv) MemWrite(a, dt uint64)                       { e.memWrts = append(e.memWrts, a) }
func (e *recEnv) MDCFill(a uint64, wb bool, dt uint64) uint64 { return 29 }

func newHandlerRig(t *testing.T, self arch.NodeID) *handlerRig {
	t.Helper()
	return newRig(t, arch.ProtoDynPtr, self)
}

// newRig builds a rig for node self running the given directory protocol.
func newRig(t *testing.T, proto arch.Protocol, self arch.NodeID) *handlerRig {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	cfg.Protocol = proto
	prog, err := Build(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &recEnv{}
	pp := ppsim.New(prog.Code, int(prog.Layout.MemBytes), ppsim.NewMDC(cfg.MDCSize, cfg.MDCWays), env)
	env.pp = pp
	prog.Layout.InitMemory(pp.Mem, self, cfg.NodeBase(self), cfg.Nodes)
	if st, _ := pp.Start("pp_init"); st != ppsim.StatusDone {
		t.Fatal("pp_init did not finish")
	}
	return &handlerRig{t: t, pp: pp, lay: prog.Layout, cfg: cfg, env: env, self: self}
}

// deliver runs the handler for message m as MAGIC would dispatch it.
func (r *handlerRig) deliver(m arch.Msg, viaNet bool) []sentMsg {
	r.t.Helper()
	isHome := r.cfg.HomeOf(m.Addr) == r.self
	jt, ok := Lookup(m.Type, viaNet, isHome)
	if !ok {
		r.t.Fatalf("no handler for %v (viaNet=%v, home=%v)", m.Type, viaNet, isHome)
	}
	r.pp.InHeader(ppisa.HdrType, uint64(m.Type))
	r.pp.InHeader(ppisa.HdrAddr, uint64(m.Addr))
	r.pp.InHeader(ppisa.HdrSrc, uint64(m.Src))
	r.pp.InHeader(ppisa.HdrReq, uint64(m.Req))
	r.pp.InHeader(ppisa.HdrAux, uint64(m.Aux))
	r.pp.InHeader(ppisa.HdrSelf, uint64(r.self))
	if isHome {
		r.pp.InHeader(ppisa.HdrDirOff, r.lay.DirOffset(r.cfg.LocalLine(m.Addr)))
	} else {
		r.pp.InHeader(ppisa.HdrDirOff, uint64(r.cfg.HomeOf(m.Addr)))
	}
	r.env.sends = nil
	st, _ := r.pp.Start(jt.Entry)
	for st != ppsim.StatusDone {
		switch st {
		case ppsim.StatusWaitPC:
			r.pp.SetPCResponse(r.env.pcKind)
		case ppsim.StatusBlockedSend:
			// recEnv never blocks
			r.t.Fatal("unexpected send block")
		}
		st, _ = r.pp.Resume()
	}
	return r.env.sends
}

func (r *handlerRig) dir(a arch.Addr) DirInfo {
	r.t.Helper()
	d, err := r.lay.Decode(r.pp.Mem, r.cfg.LocalLine(a))
	if err != nil {
		r.t.Fatal(err)
	}
	return d
}

const testAddr = arch.Addr(0x4000)

func TestHandlerLocalGetClean(t *testing.T) {
	r := newHandlerRig(t, 0)
	sends := r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 0, Req: 0}, false)
	if len(sends) != 1 || !sends[0].PI || !sends[0].Data || sends[0].Type != arch.MsgPUT {
		t.Fatalf("sends = %+v", sends)
	}
	if d := r.dir(testAddr); !d.Local || d.Dirty || d.Pending {
		t.Fatalf("dir = %+v", d)
	}
	if len(r.env.memReads) != 1 {
		t.Fatalf("memrd count = %d", len(r.env.memReads))
	}
}

func TestHandlerRemoteGetAddsSharer(t *testing.T) {
	r := newHandlerRig(t, 0)
	sends := r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 3, Req: 3}, true)
	if len(sends) != 1 || sends[0].PI || sends[0].Type != arch.MsgPUT || sends[0].Dst != 3 {
		t.Fatalf("sends = %+v", sends)
	}
	d := r.dir(testAddr)
	if len(d.Sharers) != 1 || d.Sharers[0] != 3 {
		t.Fatalf("sharers = %v", d.Sharers)
	}
}

func TestHandlerGetXInvalidatesSharers(t *testing.T) {
	r := newHandlerRig(t, 0)
	for _, n := range []arch.NodeID{2, 3, 4} {
		r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: n, Req: n}, true)
	}
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 0, Req: 0}, false) // local too
	sends := r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 5, Req: 5}, true)

	var invals []arch.NodeID
	var putx, piInval int
	for _, s := range sends {
		switch s.Type {
		case arch.MsgINVAL:
			invals = append(invals, s.Dst)
		case arch.MsgPUTX:
			putx++
			if s.Dst != 5 {
				t.Fatalf("PUTX to %d", s.Dst)
			}
		case arch.MsgPIInval:
			piInval++
		}
	}
	if len(invals) != 3 || putx != 1 || piInval != 1 {
		t.Fatalf("invals=%v putx=%d piInval=%d", invals, putx, piInval)
	}
	d := r.dir(testAddr)
	if !d.Dirty || d.Owner != 5 || !d.Pending || d.Acks != 3 || d.Local || len(d.Sharers) != 0 {
		t.Fatalf("dir = %+v", d)
	}
	// Acks drain the pending bit.
	for i := 0; i < 3; i++ {
		r.deliver(arch.Msg{Type: arch.MsgIACK, Addr: testAddr, Src: arch.NodeID(2 + i)}, true)
	}
	if d := r.dir(testAddr); d.Pending || d.Acks != 0 {
		t.Fatalf("after acks dir = %+v", d)
	}
}

func TestHandlerGetXSkipsRequesterSharer(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 3, Req: 3}, true)
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 4, Req: 4}, true)
	sends := r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 3, Req: 3}, true) // upgrade
	for _, s := range sends {
		if s.Type == arch.MsgINVAL && s.Dst == 3 {
			t.Fatal("invalidated the requester")
		}
	}
	d := r.dir(testAddr)
	if !d.Dirty || d.Owner != 3 || d.Acks != 1 {
		t.Fatalf("dir = %+v", d)
	}
}

func TestHandlerDirtyForwarding(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 2, Req: 2}, true)
	sends := r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 3, Req: 3}, true)
	if len(sends) != 1 || sends[0].Type != arch.MsgFwdGET || sends[0].Dst != 2 || sends[0].Req != 3 {
		t.Fatalf("sends = %+v", sends)
	}
	if d := r.dir(testAddr); !d.Pending {
		t.Fatal("pending not set during forward")
	}
	// Requests NAK while pending.
	sends = r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 4, Req: 4}, true)
	if len(sends) != 1 || sends[0].Type != arch.MsgNAK || sends[0].Dst != 4 {
		t.Fatalf("sends = %+v", sends)
	}
	// The sharing writeback resolves it: old owner and reader both share.
	sends = r.deliver(arch.Msg{Type: arch.MsgSWB, Addr: testAddr, Src: 2, Req: 3}, true)
	if len(sends) != 0 {
		t.Fatalf("SWB sent %+v", sends)
	}
	d := r.dir(testAddr)
	if d.Dirty || d.Pending || len(d.Sharers) != 2 {
		t.Fatalf("dir = %+v", d)
	}
	if len(r.env.memWrts) == 0 {
		t.Fatal("SWB did not write memory")
	}
}

func TestHandlerFwdGetAtDirtyNode(t *testing.T) {
	r := newHandlerRig(t, 2) // we are the dirty node, not the home
	r.env.pcKind = 1         // cache yields dirty data
	sends := r.deliver(arch.Msg{Type: arch.MsgFwdGET, Addr: testAddr, Src: 0, Req: 3}, true)
	var types []arch.MsgType
	for _, s := range sends {
		types = append(types, s.Type)
	}
	if len(sends) != 3 || sends[0].Type != arch.MsgPIDowngr ||
		sends[1].Type != arch.MsgPUT || sends[1].Dst != 3 || sends[1].Aux != 3 ||
		sends[2].Type != arch.MsgSWB || sends[2].Dst != 0 {
		t.Fatalf("sends = %v (%+v)", types, sends)
	}
}

func TestHandlerFwdGetRacedWriteback(t *testing.T) {
	r := newHandlerRig(t, 2)
	r.env.pcKind = 0 // cache no longer holds it
	sends := r.deliver(arch.Msg{Type: arch.MsgFwdGET, Addr: testAddr, Src: 0, Req: 3}, true)
	if len(sends) != 3 || sends[1].Type != arch.MsgPCLR || sends[1].Dst != 0 ||
		sends[2].Type != arch.MsgNAK || sends[2].Dst != 3 {
		t.Fatalf("sends = %+v", sends)
	}
}

func TestHandlerPclrGuards(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 2, Req: 2}, true)
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 3, Req: 3}, true) // pending
	// A PCLR from a node that is NOT the recorded owner must be ignored.
	r.deliver(arch.Msg{Type: arch.MsgPCLR, Addr: testAddr, Src: 9}, true)
	if d := r.dir(testAddr); !d.Pending {
		t.Fatal("stale PCLR cleared pending")
	}
	// From the owner it clears.
	r.deliver(arch.Msg{Type: arch.MsgPCLR, Addr: testAddr, Src: 2}, true)
	if d := r.dir(testAddr); d.Pending {
		t.Fatal("owner PCLR did not clear pending")
	}
}

func TestHandlerWritebackGuards(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 2, Req: 2}, true)
	// Writeback from a non-owner: memory written (data is valid) but the
	// directory state must not change.
	r.deliver(arch.Msg{Type: arch.MsgWB, Addr: testAddr, Src: 7}, true)
	if d := r.dir(testAddr); !d.Dirty || d.Owner != 2 {
		t.Fatalf("stale WB corrupted dir: %+v", d)
	}
	r.deliver(arch.Msg{Type: arch.MsgWB, Addr: testAddr, Src: 2}, true)
	if d := r.dir(testAddr); d.Dirty {
		t.Fatal("owner WB did not clear dirty")
	}
}

func TestHandlerReplacementHints(t *testing.T) {
	r := newHandlerRig(t, 0)
	for _, n := range []arch.NodeID{2, 3, 4} {
		r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: n, Req: n}, true)
	}
	// Remove the middle, then head, then tail — every unlink path.
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: testAddr, Src: 3}, true)
	if d := r.dir(testAddr); len(d.Sharers) != 2 {
		t.Fatalf("after mid removal: %v", d.Sharers)
	}
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: testAddr, Src: 4}, true) // current head
	if d := r.dir(testAddr); len(d.Sharers) != 1 || d.Sharers[0] != 2 {
		t.Fatalf("after head removal: %v", d.Sharers)
	}
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: testAddr, Src: 2}, true)
	if d := r.dir(testAddr); len(d.Sharers) != 0 {
		t.Fatalf("after last removal: %v", d.Sharers)
	}
	// Removing an absent sharer is a no-op.
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: testAddr, Src: 9}, true)
	// Pool fully recovered.
	free, err := r.lay.FreeCount(r.pp.Mem, r.pp.Reg(FreeHeadReg))
	if err != nil {
		t.Fatal(err)
	}
	if free != int(r.lay.PoolSize) {
		t.Fatalf("pool leak: free %d of %d", free, r.lay.PoolSize)
	}
}

func TestHandlerLocalHintAndWriteback(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 0, Req: 0}, false)
	r.deliver(arch.Msg{Type: arch.MsgRPL, Addr: testAddr, Src: 0, Req: 0}, false)
	if d := r.dir(testAddr); d.Local {
		t.Fatal("local hint did not clear LOCAL")
	}
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 0, Req: 0}, false)
	if d := r.dir(testAddr); !d.Dirty || d.Owner != 0 || !d.Local {
		t.Fatalf("after local GETX: %+v", d)
	}
	r.deliver(arch.Msg{Type: arch.MsgWB, Addr: testAddr, Src: 0, Req: 0}, false)
	if d := r.dir(testAddr); d.Dirty || d.Local {
		t.Fatalf("after local WB: %+v", d)
	}
}

func TestHandlerRemoteForwarders(t *testing.T) {
	r := newHandlerRig(t, 2) // not the home of testAddr (home 0)
	for _, c := range []struct {
		in   arch.MsgType
		data bool
	}{{arch.MsgGET, false}, {arch.MsgGETX, false}, {arch.MsgWB, true}, {arch.MsgRPL, false}} {
		sends := r.deliver(arch.Msg{Type: c.in, Addr: testAddr, Src: 2, Req: 2}, false)
		if len(sends) != 1 || sends[0].PI || sends[0].Dst != 0 || sends[0].Type != c.in {
			t.Fatalf("%v forwarded as %+v", c.in, sends)
		}
		if sends[0].Data != c.data {
			t.Fatalf("%v data flag = %v", c.in, sends[0].Data)
		}
	}
}

func TestHandlerNakWhenOwnWritebackInFlight(t *testing.T) {
	r := newHandlerRig(t, 0)
	r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 0, Req: 0}, false)
	// Before the WB arrives, the local processor re-reads: NAK.
	sends := r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: 0, Req: 0}, false)
	if len(sends) != 1 || sends[0].Type != arch.MsgNAK || !sends[0].PI {
		t.Fatalf("sends = %+v", sends)
	}
}

// TestHandlerPoolOverflowBroadcast exhausts the pointer pool and verifies
// the protocol degrades to broadcast invalidation (the OVFL path).
func TestHandlerPoolOverflowBroadcast(t *testing.T) {
	r := newHandlerRig(t, 0)
	// Shrink the free list to two entries and re-run pp_init so the PP
	// reloads its cached free-list head.
	mem := r.pp.Mem
	base := uint64(r.lay.PtrBase)
	*mem.Word((base + 0) / 8) = 1 << NextPos
	*mem.Word((base + 8) / 8) = NullPtr << NextPos
	*mem.Word(GFreeHead / 8) = 0
	if st, _ := r.pp.Start("pp_init"); st != ppsim.StatusDone {
		t.Fatal("pp_init")
	}
	// Three remote sharers: the third insert must overflow.
	for _, n := range []arch.NodeID{2, 3, 4} {
		r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: n, Req: n}, true)
	}
	d := r.dir(testAddr)
	if !d.Overflow {
		t.Fatalf("pool not overflowed: %+v", d)
	}
	if len(d.Sharers) != 2 {
		t.Fatalf("sharers = %v, want the two that fit", d.Sharers)
	}
	// A write must now broadcast to every node except self and requester.
	sends := r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 5, Req: 5}, true)
	invals := map[arch.NodeID]bool{}
	for _, s := range sends {
		if s.Type == arch.MsgINVAL {
			if invals[s.Dst] {
				t.Fatalf("duplicate INVAL to %d", s.Dst)
			}
			invals[s.Dst] = true
		}
	}
	if len(invals) != r.cfg.Nodes-2 {
		t.Fatalf("broadcast reached %d nodes, want %d", len(invals), r.cfg.Nodes-2)
	}
	if invals[0] || invals[5] {
		t.Fatal("broadcast must skip self and requester")
	}
	d = r.dir(testAddr)
	if d.Overflow || !d.Dirty || d.Owner != 5 || d.Acks != r.cfg.Nodes-2 {
		t.Fatalf("post-broadcast dir = %+v", d)
	}
	// The list entries were released back to the free list.
	free, err := r.lay.FreeCount(r.pp.Mem, r.pp.Reg(FreeHeadReg))
	if err != nil {
		t.Fatal(err)
	}
	if free != 2 {
		t.Fatalf("free entries = %d, want 2", free)
	}
}

// TestPerInvalidationCost measures the marginal PP cycles per invalidation
// in the write-miss handler — the paper's "14 + 10 to 15 per invalidation"
// (Table 3.4).
func TestPerInvalidationCost(t *testing.T) {
	cost := func(nSharers int) uint64 {
		r := newHandlerRig(t, 0)
		for n := 0; n < nSharers; n++ {
			r.deliver(arch.Msg{Type: arch.MsgGET, Addr: testAddr, Src: arch.NodeID(n + 2), Req: arch.NodeID(n + 2)}, true)
		}
		before := r.pp.Stats.Pairs
		r.deliver(arch.Msg{Type: arch.MsgGETX, Addr: testAddr, Src: 1, Req: 1}, true)
		return r.pp.Stats.Pairs - before
	}
	base := cost(0)
	one := cost(1)
	four := cost(4)
	perInval := float64(four-one) / 3
	t.Logf("write miss: base %d cycles, +%d for first inval, %.1f per inval (paper: 14 + 10..15)", base, one-base, perInval)
	if perInval < 5 || perInval > 20 {
		t.Fatalf("per-invalidation cost %.1f outside plausible range", perInval)
	}
	if base < 8 || base > 25 {
		t.Fatalf("base write-miss cost %d outside plausible range", base)
	}
}
