package ppsim

import (
	"math/rand"
	"reflect"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
)

// This file is the differential torture test for the compiled dispatch
// backend: seeded randomized handler invocation streams run through the
// reference interpreter and the compiled backend in lockstep, over real
// protocol programs in every PP mode (dual-issue, single-issue, and the
// DLX-substitution ablation). Every run segment must report the identical
// (status, cycles) pair, and at the end the two PPs must agree bit for bit
// on registers, protocol memory, statistics, MDC state, and the full
// environment interaction log (sends, memory operations, MDC fills, each
// with its intra-segment timestamp).

// envSend, envMem, and envFill are entries of the scripted environment's
// interaction log; the logs are compared wholesale with reflect.DeepEqual.
type envSend struct {
	H  OutHeader
	Dt uint64
}
type envMem struct {
	Addr uint64
	Dt   uint64
}
type envFill struct {
	Addr  uint64
	WB    bool
	Dt    uint64
	Stall uint64
}

// scriptEnv is a deterministic environment whose responses depend only on
// its own call history: every blockEvery-th TrySend is rejected once (the
// retry accepts), and MDC fill penalties cycle through five values. Because
// the history feeds back into behavior, any divergence between the two
// backends cascades instead of canceling out.
type scriptEnv struct {
	blockEvery int
	sendCalls  int
	rejected   bool

	sends  []envSend
	memRds []envMem
	memWrs []envMem
	fills  []envFill
}

func (e *scriptEnv) TrySend(h OutHeader, dt uint64) bool {
	e.sendCalls++
	if e.blockEvery > 0 && !e.rejected && e.sendCalls%e.blockEvery == 0 {
		e.rejected = true
		return false
	}
	e.rejected = false
	e.sends = append(e.sends, envSend{h, dt})
	return true
}

func (e *scriptEnv) MemRead(a, dt uint64)  { e.memRds = append(e.memRds, envMem{a, dt}) }
func (e *scriptEnv) MemWrite(a, dt uint64) { e.memWrs = append(e.memWrs, envMem{a, dt}) }

func (e *scriptEnv) MDCFill(a uint64, wb bool, dt uint64) uint64 {
	stall := 29 + uint64(len(e.fills)%5)
	e.fills = append(e.fills, envFill{a, wb, dt, stall})
	return stall
}

// tortNode simulates one node's PP under both backends in lockstep.
type tortNode struct {
	t    *testing.T
	cfg  *arch.Config
	prog *protocol.Program
	self arch.NodeID
	pps  [2]*PP // 0: interpreter, 1: compiled
	envs [2]*scriptEnv
}

func newTortNode(t *testing.T, cfg *arch.Config, prog *protocol.Program, self arch.NodeID) *tortNode {
	t.Helper()
	n := &tortNode{t: t, cfg: cfg, prog: prog, self: self}
	for i, b := range [2]Backend{BackendInterp, BackendCompiled} {
		env := &scriptEnv{blockEvery: 3}
		pp := NewBackend(prog.Code, int(prog.Layout.MemBytes), NewMDC(cfg.MDCSize, cfg.MDCWays), env, b)
		prog.Layout.InitMemory(pp.Mem, self, cfg.NodeBase(self), cfg.Nodes)
		if st, _ := pp.Start("pp_init"); st != StatusDone {
			t.Fatalf("%s: pp_init did not finish", b)
		}
		n.pps[i] = pp
		n.envs[i] = env
	}
	n.verify("after pp_init")
	return n
}

// deliver dispatches one message to both PPs and runs each handler to
// completion, asserting that every run segment reports the same status and
// cycle count. It returns the sends the handler produced (as observed on
// the interpreter side; verify() proves the compiled log identical).
func (n *tortNode) deliver(m arch.Msg, viaNet bool, pcKind uint64) []envSend {
	n.t.Helper()
	isHome := n.cfg.HomeOf(m.Addr) == n.self
	jt, ok := protocol.Lookup(m.Type, viaNet, isHome)
	if !ok {
		n.t.Fatalf("no handler for %v (viaNet=%v, home=%v)", m.Type, viaNet, isHome)
	}
	mark := len(n.envs[0].sends)
	type seg struct {
		st  Status
		cyc uint64
	}
	var segs [2][]seg
	for i, pp := range n.pps {
		pp.InHeader(ppisa.HdrType, uint64(m.Type))
		pp.InHeader(ppisa.HdrAddr, uint64(m.Addr))
		pp.InHeader(ppisa.HdrSrc, uint64(m.Src))
		pp.InHeader(ppisa.HdrReq, uint64(m.Req))
		pp.InHeader(ppisa.HdrAux, uint64(m.Aux))
		pp.InHeader(ppisa.HdrSelf, uint64(n.self))
		if isHome {
			pp.InHeader(ppisa.HdrDirOff, n.prog.Layout.DirOffset(n.cfg.LocalLine(m.Addr)))
		} else {
			pp.InHeader(ppisa.HdrDirOff, uint64(n.cfg.HomeOf(m.Addr)))
		}
		// Exercise both entry APIs: the string wrapper on the interpreter,
		// the interned index on the compiled backend.
		var st Status
		var cyc uint64
		if i == 0 {
			st, cyc = pp.Start(jt.Entry)
		} else {
			pc, err := pp.EntryPC(jt.Entry)
			if err != nil {
				n.t.Fatal(err)
			}
			st, cyc = pp.StartAt(pc)
		}
		for {
			segs[i] = append(segs[i], seg{st, cyc})
			if st == StatusDone {
				break
			}
			if st == StatusWaitPC {
				pp.SetPCResponse(pcKind)
			}
			st, cyc = pp.Resume()
		}
	}
	if !reflect.DeepEqual(segs[0], segs[1]) {
		n.t.Fatalf("node %d, %v (viaNet=%v): segment mismatch\ninterp:   %+v\ncompiled: %+v",
			n.self, m.Type, viaNet, segs[0], segs[1])
	}
	n.verify("after " + m.Type.String())
	return n.envs[0].sends[mark:]
}

// memDiff returns the first protocol-memory word on which two PPs sharing
// a layout differ. Words in chunks neither PP ever wrote are pristine on
// both sides and skipped.
func memDiff(a, b *PP) (uint64, bool) {
	for w := uint64(0); w < a.memWords; w++ {
		wa, oka := a.Mem.NextMaterialized(w)
		wb, okb := b.Mem.NextMaterialized(w)
		switch {
		case !oka && !okb:
			return 0, false
		case !oka:
			w = wb
		case !okb:
			w = wa
		default:
			w = min(wa, wb)
		}
		if w < a.memWords && a.Mem.Load(w) != b.Mem.Load(w) {
			return w, true
		}
	}
	return 0, false
}

// verify asserts bit-identical architectural and environment state between
// the two backends.
func (n *tortNode) verify(when string) {
	n.t.Helper()
	a, b := n.pps[0], n.pps[1]
	for r := 0; r < 32; r++ {
		if a.Reg(r) != b.Reg(r) {
			n.t.Fatalf("node %d %s: r%d interp=%#x compiled=%#x", n.self, when, r, a.Reg(r), b.Reg(r))
		}
	}
	if a.Stats != b.Stats {
		n.t.Fatalf("node %d %s: stats\ninterp:   %+v\ncompiled: %+v", n.self, when, a.Stats, b.Stats)
	}
	if w, ok := memDiff(a, b); ok {
		n.t.Fatalf("node %d %s: protocol memory diverged at word %d: interp=%#x compiled=%#x",
			n.self, when, w, a.Mem.Load(w), b.Mem.Load(w))
	}
	if !reflect.DeepEqual(a.MDC, b.MDC) {
		n.t.Fatalf("node %d %s: MDC state diverged\ninterp:   %+v\ncompiled: %+v",
			n.self, when, a.MDC.Stats, b.MDC.Stats)
	}
	ea, eb := n.envs[0], n.envs[1]
	if !reflect.DeepEqual(ea.sends, eb.sends) {
		n.t.Fatalf("node %d %s: send logs diverged (%d vs %d sends)", n.self, when, len(ea.sends), len(eb.sends))
	}
	if !reflect.DeepEqual(ea.memRds, eb.memRds) || !reflect.DeepEqual(ea.memWrs, eb.memWrs) {
		n.t.Fatalf("node %d %s: memory-op logs diverged", n.self, when)
	}
	if !reflect.DeepEqual(ea.fills, eb.fills) {
		n.t.Fatalf("node %d %s: MDC fill logs diverged", n.self, when)
	}
}

// TestDifferentialBackends drives seeded random message streams through a
// home node (directory mutation, forwards, ack draining — the ni_* and
// pi_*_local handlers) and a remote node (forwarders, interventions with
// both WAITPC outcomes, requester-side replies) in every PP scheduling
// mode.
func TestDifferentialBackends(t *testing.T) {
	modes := []arch.PPMode{arch.PPDualIssue, arch.PPSingleIssue, arch.PPNoSpecial}
	for _, mode := range modes {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 8
		cfg.MemBytesPerNode = 1 << 20
		cfg.PPMode = mode
		prog, err := protocol.Build(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(mode.String()+"/seed"+string(rune('0'+seed)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				driveHome(t, &cfg, prog, rng)
				driveRemote(t, &cfg, prog, rng)
			})
		}
	}
}

// driveHome mirrors the protocol package's differential driver: random
// GET/GETX/WB/RPL traffic at the home, with outstanding forwards resolved
// by SWB/XFER and invalidation acks drained, across several cache lines so
// the MDC sees both hits and misses.
func driveHome(t *testing.T, cfg *arch.Config, prog *protocol.Program, rng *rand.Rand) {
	const self = arch.NodeID(0)
	n := newTortNode(t, cfg, prog, self)
	addrs := make([]arch.Addr, 24)
	for i := range addrs {
		addrs[i] = arch.Addr(0x4000 + i*0x1240)
	}
	var pendingFwd arch.NodeID
	var fwdAddr arch.Addr
	hasFwd, fwdExclusive := false, false
	for op := 0; op < 160; op++ {
		src := arch.NodeID(rng.Intn(8))
		addr := addrs[rng.Intn(len(addrs))]
		if hasFwd && rng.Intn(2) == 0 {
			mt := arch.MsgSWB
			if fwdExclusive {
				mt = arch.MsgXFER
			}
			n.deliver(arch.Msg{Type: mt, Addr: fwdAddr, Src: pendingFwd, Req: src}, true, 1)
			hasFwd = false
		}
		var mt arch.MsgType
		switch rng.Intn(5) {
		case 0, 1:
			mt = arch.MsgGET
		case 2:
			mt = arch.MsgGETX
		case 3:
			mt = arch.MsgWB
		default:
			mt = arch.MsgRPL
		}
		viaNet := src != self
		sends := n.deliver(arch.Msg{Type: mt, Addr: addr, Src: src, Req: src}, viaNet, 1)
		acks := 0
		for _, s := range sends {
			switch arch.MsgType(s.H.Type) {
			case arch.MsgFwdGET:
				if !hasFwd {
					pendingFwd, fwdAddr, hasFwd, fwdExclusive = arch.NodeID(s.H.Dst), addr, true, false
				}
			case arch.MsgFwdGETX:
				if !hasFwd {
					pendingFwd, fwdAddr, hasFwd, fwdExclusive = arch.NodeID(s.H.Dst), addr, true, true
				}
			case arch.MsgINVAL:
				acks++
			}
		}
		for i := 0; i < acks; i++ {
			n.deliver(arch.Msg{Type: arch.MsgIACK, Addr: addr, Src: arch.NodeID(1 + i%7)}, true, 1)
		}
	}
	n.verify("final (home)")
}

// driveRemote exercises the non-home handler set: PI-side forwarders,
// forwarded interventions with both processor-cache outcomes (pcKind 1 =
// dirty data, covering WAITPC; 0 = raced writeback), invalidations, and
// requester-side replies.
func driveRemote(t *testing.T, cfg *arch.Config, prog *protocol.Program, rng *rand.Rand) {
	const self = arch.NodeID(2)
	n := newTortNode(t, cfg, prog, self)
	addrs := [3]arch.Addr{0x4000, 0x8040, 0xC080} // home node 0
	for op := 0; op < 80; op++ {
		addr := addrs[rng.Intn(len(addrs))]
		src := arch.NodeID(rng.Intn(8))
		pcKind := uint64(rng.Intn(2))
		switch rng.Intn(8) {
		case 0:
			n.deliver(arch.Msg{Type: arch.MsgGET, Addr: addr, Src: self, Req: self}, false, pcKind)
		case 1:
			n.deliver(arch.Msg{Type: arch.MsgGETX, Addr: addr, Src: self, Req: self}, false, pcKind)
		case 2:
			n.deliver(arch.Msg{Type: arch.MsgWB, Addr: addr, Src: self, Req: self}, false, pcKind)
		case 3:
			n.deliver(arch.Msg{Type: arch.MsgRPL, Addr: addr, Src: self, Req: self}, false, pcKind)
		case 4:
			n.deliver(arch.Msg{Type: arch.MsgFwdGET, Addr: addr, Src: 0, Req: src}, true, pcKind)
		case 5:
			n.deliver(arch.Msg{Type: arch.MsgFwdGETX, Addr: addr, Src: 0, Req: src}, true, pcKind)
		case 6:
			n.deliver(arch.Msg{Type: arch.MsgINVAL, Addr: addr, Src: 0, Req: src}, true, pcKind)
		default:
			mt := [3]arch.MsgType{arch.MsgPUT, arch.MsgPUTX, arch.MsgNAK}[rng.Intn(3)]
			n.deliver(arch.Msg{Type: mt, Addr: addr, Src: 0, Req: self}, true, pcKind)
		}
	}
	n.verify("final (remote)")
}
