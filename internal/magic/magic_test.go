package magic

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

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

// rig hand-builds a two-node FLASH machine (core would be circular).
type rig struct {
	eng    *sim.Engine
	net    *network.Network
	magics [2]*Magic
	cpus   [2]*cpu.CPU
	prog   *protocol.Program
}

func newRig(t *testing.T, cfg arch.Config, refs [2][]cpu.Ref) *rig {
	t.Helper()
	r := buildRig(t, cfg, refs)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// buildRig wires the machine and starts the processors without running it.
func buildRig(t *testing.T, cfg arch.Config, refs [2][]cpu.Ref) *rig {
	t.Helper()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	prog, err := protocol.Build(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	return buildRigProg(t, cfg, prog, refs)
}

// buildRigProg is buildRig running prog, a program built for cfg's layout.
func buildRigProg(t *testing.T, cfg arch.Config, prog *protocol.Program, refs [2][]cpu.Ref) *rig {
	t.Helper()
	net := network.New(2, 22)
	r := &rig{eng: sim.NewEngine(), net: net, prog: prog}
	mem := memsys.NewStore(1 << 18)
	for i := 0; i < 2; i++ {
		ms := memsys.New(cfg.Timing)
		cfgCopy := cfg
		mg := New(arch.NodeID(i), r.eng, &cfgCopy, prog, ms, net.Port(arch.NodeID(i), r.eng))
		p := cpu.New(arch.NodeID(i), r.eng, &cfgCopy, mg, memsys.NewView(mem))
		mg.Attach(p)
		net.Attach(arch.NodeID(i), mg)
		r.magics[i] = mg
		r.cpus[i] = p
		p.SetSource(&script{refs: refs[i]})
		p.Start()
	}
	return r
}

// counts returns mg's per-handler invocation counts.
func counts(mg *Magic) map[string]uint64 {
	out := map[string]uint64{}
	for name, h := range mg.Handlers() {
		out[name] = h.Count
	}
	return out
}

func TestHandlerDispatchLocalRead(t *testing.T) {
	r := newRig(t, arch.DefaultConfig(), [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x1000}},
		nil,
	})
	mg := r.magics[0]
	if counts(mg)["pi_get_local"] != 1 {
		t.Fatalf("handler counts: %v", counts(mg))
	}
	// One data reply reached the processor: exactly one local clean miss.
	if mc := r.cpus[0].Stats.MissClass; mc[arch.MissLocalClean] != 1 || r.cpus[0].Stats.Misses != 1 {
		t.Fatalf("node 0 miss classes %v of %d misses, want the one local clean read", mc, r.cpus[0].Stats.Misses)
	}
	// The directory must now record the local copy.
	d, err := r.prog.Layout.Decode(mg.PP.Mem, r.magics[0].Cfg.LocalLine(0x1000))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Local || d.Dirty {
		t.Fatalf("dir = %+v, want local clean", d)
	}
}

// TestNodesShareOneJumpTable pins that the jump table belongs to the
// program: every controller of a machine, and of a second machine built
// from the same configuration, dispatches through the memoized program's
// one table, a run leaves it as built, and only the handler histograms
// are per node.
func TestNodesShareOneJumpTable(t *testing.T) {
	refs := [2][]cpu.Ref{{{Kind: arch.RefRead, Addr: 0x1000}}, {{Kind: arch.RefRead, Addr: 0x1000}}}
	a := buildRig(t, arch.DefaultConfig(), refs)
	before := a.prog.JT
	before.Names = slices.Clone(before.Names)
	if err := a.eng.Run(); err != nil {
		t.Fatal(err)
	}
	b := newRig(t, arch.DefaultConfig(), refs)
	if a.prog != b.prog {
		t.Fatal("two machines of one configuration built two programs")
	}
	for _, mg := range append(a.magics[:], b.magics[:]...) {
		if &mg.Prog.JT != &a.prog.JT {
			t.Errorf("magic%d dispatches through its own jump table, not the program's", mg.ID)
		}
	}
	if !reflect.DeepEqual(a.prog.JT, before) {
		t.Error("a run changed the program's jump table")
	}
	if &a.magics[0].handlers[0] == &a.magics[1].handlers[0] {
		t.Error("two nodes share handler histograms")
	}
	if counts(a.magics[0])["pi_get_local"] != 1 || counts(a.magics[1])["pi_get_remote"] != 1 {
		t.Errorf("handler counts %v and %v, want one local and one remote read", counts(a.magics[0]), counts(a.magics[1]))
	}
}

// TestHandlerHistogramsMaterializeOnUse pins the controller's handler
// histograms: none before a handler completes, one per entry that ran after,
// captured and restored as copies (a capture restores twice to the same
// thing), and dropped by a restore of the zero state.
func TestHandlerHistogramsMaterializeOnUse(t *testing.T) {
	r := buildRig(t, arch.DefaultConfig(), [2][]cpu.Ref{{{Kind: arch.RefRead, Addr: 0x1000}}, nil})
	mg := r.magics[0]
	materialized := func() (n int) {
		for _, h := range mg.handlers {
			if h != nil {
				n++
			}
		}
		return n
	}
	if n := materialized(); n != 0 {
		t.Fatalf("%d handler histograms before any handler ran, want 0", n)
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n, c := materialized(), counts(mg); n != 1 || c["pi_get_local"] != 1 {
		t.Fatalf("%d histograms, counts %v after one local read; want pi_get_local's alone", n, c)
	}
	busy := mg.PPBusy()
	st, err := mg.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	mg.RestoreState(MagicState{})
	if n := materialized(); n != 0 || mg.PPBusy() != 0 {
		t.Fatalf("zero state restored: %d histograms, PP busy %d; want none", n, mg.PPBusy())
	}
	for i := 0; i < 2; i++ {
		mg.RestoreState(st)
		if n, c := materialized(), counts(mg); n != 1 || c["pi_get_local"] != 1 || mg.PPBusy() != busy {
			t.Fatalf("restore %d: %d histograms, counts %v, PP busy %d; want the capture's (busy %d)", i, n, c, mg.PPBusy(), busy)
		}
		mg.Handlers()["pi_get_local"].Observe(1000) // counts into the controller's copy only
	}
}

func TestSpeculativeReadAccounting(t *testing.T) {
	// A clean local read uses its speculative read; a read of a line dirty
	// in a remote cache wastes it.
	r := newRig(t, arch.DefaultConfig(), [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x1000},
			{Kind: arch.RefRead, Addr: 0x2000, Busy: 8000}}, // dirty at node 1 by then
		{{Kind: arch.RefWrite, Addr: 0x2000}},
	})
	m := r.magics[0].Mem
	if m.SpecReads < 2 {
		t.Fatalf("spec reads = %d, want >= 2", m.SpecReads)
	}
	if m.SpecUseless == 0 {
		t.Fatal("dirty-remote read should waste its speculative read")
	}
}

func TestSpeculationDisabled(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Speculation = false
	r := newRig(t, cfg, [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x1000}},
		nil,
	})
	if r.magics[0].Mem.SpecReads != 0 {
		t.Fatal("speculative reads issued with speculation disabled")
	}
	if r.magics[0].Mem.Reads == 0 {
		t.Fatal("handler-initiated memrd did not reach memory")
	}
	// The read still completes, just slower than the 27-cycle speculative
	// path.
	if r.cpus[0].Stats.ReadStall <= 27 {
		t.Fatalf("read stall %d; expected slower than speculative path", r.cpus[0].Stats.ReadStall)
	}
}

func TestRemoteReadHandlers(t *testing.T) {
	r := newRig(t, arch.DefaultConfig(), [2][]cpu.Ref{
		nil,
		{{Kind: arch.RefRead, Addr: 0x1000}}, // remote read of node 0's line
	})
	if counts(r.magics[1])["pi_get_remote"] != 1 {
		t.Fatalf("requester handlers: %v", counts(r.magics[1]))
	}
	if counts(r.magics[0])["ni_get"] != 1 {
		t.Fatalf("home handlers: %v", counts(r.magics[0]))
	}
	if counts(r.magics[1])["ni_put"] != 1 {
		t.Fatalf("reply handlers: %v", counts(r.magics[1]))
	}
	// Sharer recorded in the home's pointer pool.
	d, err := r.prog.Layout.Decode(r.magics[0].PP.Mem, r.magics[0].Cfg.LocalLine(0x1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Sharers) != 1 || d.Sharers[0] != 1 {
		t.Fatalf("sharers = %v, want [1]", d.Sharers)
	}
}

func TestPPOccupancyAccumulates(t *testing.T) {
	r := newRig(t, arch.DefaultConfig(), [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: 0x1000}},
		nil,
	})
	if r.magics[0].PPBusy() == 0 {
		t.Fatal("no PP occupancy recorded")
	}
	if r.magics[0].Stats.Dispatches != 1 {
		t.Fatalf("dispatches = %d, want 1", r.magics[0].Stats.Dispatches)
	}
}

// TestLateInvalCompletionSparesNextHandler fires the one ordering in which an
// intervention's completion outlives the handler that issued it: ni_inval
// sends its PIInval and retires, ni_fwd_get dispatches on the same (single,
// embedded) handler context, issues its own PIDowngr and stalls on WAITPC,
// and only then does the processor cache answer the PIInval. That answer
// must not reach the context — it would wake the stalled handler with
// someone else's response.
func TestLateInvalCompletionSparesNextHandler(t *testing.T) {
	const x, y, private0 = 0x1000, 0x2000, 0x8000 // homed at node 0
	const private1, own1 = 0x108000, 0x109000     // homed at node 1
	r := buildRig(t, arch.DefaultConfig(), [2][]cpu.Ref{
		// Node 0, once node 1 holds X shared and Y dirty: write X (an INVAL to
		// node 1) and read Y (a FwdGET to node 1) back to back. The pause rides
		// on a private hit so the two misses issue at the engine's clock.
		{{Kind: arch.RefRead, Addr: private0}, {Kind: arch.RefRead, Addr: private0, Busy: 8000},
			{Kind: arch.RefWrite, Addr: x, Busy: 4}, {Kind: arch.RefRead, Addr: y, Busy: 4}},
		// Node 1 keeps its own PP busy with a local write miss while the two
		// messages arrive 29 cycles apart, so they dispatch back to back.
		{{Kind: arch.RefRead, Addr: x}, {Kind: arch.RefWrite, Addr: y}, {Kind: arch.RefRead, Addr: private1},
			{Kind: arch.RefRead, Addr: private1, Busy: 7148}, {Kind: arch.RefWrite, Addr: own1, Busy: 4}},
	})
	var buf, cache trace.Buffer
	r.magics[1].Tr = trace.New(&buf)
	r.cpus[1].Tr = trace.New(&cache)
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}

	var inval, fwd *trace.Event
	for i := range buf.Events {
		switch ev := &buf.Events[i]; {
		case ev.Kind != trace.KindHandler:
		case ev.Name == "ni_inval":
			inval = ev
		case ev.Name == "ni_fwd_get":
			fwd = ev
		}
	}
	if inval == nil || fwd == nil {
		t.Fatalf("node 1 handlers %v: want one ni_inval and one ni_fwd_get", counts(r.magics[1]))
	}
	// The PIInval completes PCacheState cycles after it crosses the outbox
	// and the PI (the bus is idle): between 20 cycles after ni_inval started
	// and 20 after it ended. ni_fwd_get must cover that whole interval.
	T := r.magics[1].T
	lag := uint64(T.OutboxOut + T.PIOutbound + T.PCacheState)
	invalEnd, fwdEnd := inval.Cycle+inval.Dur, fwd.Cycle+fwd.Dur
	if !(invalEnd <= fwd.Cycle && fwd.Cycle < inval.Cycle+lag && fwdEnd > invalEnd+lag) {
		t.Fatalf("ni_inval [%d,%d), ni_fwd_get [%d,%d), PIInval completion in [%d,%d]: the completion does not land inside ni_fwd_get",
			inval.Cycle, invalEnd, fwd.Cycle, fwdEnd, inval.Cycle+lag, invalEnd+lag)
	}
	// ni_fwd_get still got its own answer: dirty data, forwarded to node 0.
	st := &r.cpus[0].Stats
	if st.MissClass[arch.MissLocalDirty] != 1 || st.Naks != 0 {
		t.Errorf("node 0 miss classes %v, %d NAKs: the forwarded read was disturbed", st.MissClass, st.Naks)
	}
	var interventions []string
	for _, ev := range cache.Events {
		if ev.Kind == trace.KindIntervene {
			interventions = append(interventions, ev.Name)
		}
	}
	if want := []string{arch.MsgPIInval.String(), arch.MsgPIDowngr.String()}; fmt.Sprint(interventions) != fmt.Sprint(want) {
		t.Errorf("node 1's cache saw interventions %v, want %v", interventions, want)
	}
	if m := r.magics[1]; !m.quiet(m.Eng.Now()) {
		t.Errorf("node 1 controller after the run: %s", m.DebugState())
	}
}

// TestInboxRing pins the inbound queues' storage discipline: FIFO order
// across wrap-around and growth, in-order printing for DebugState, and — the
// bug it replaced, `q = q[1:]` walking the slice off its backing array so
// every append reallocated — no allocation once the ring has grown, Reset
// included.
func TestInboxRing(t *testing.T) {
	var q inbox
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(queued{msg: arch.Msg{Aux: uint32(next)}})
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if got := q.pop().msg.Aux; got != uint32(want) {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(5)
	pop(3)
	push(6) // wraps the 8-entry ring: 8 queued, head at 3
	push(3) // grows it with the head mid-buffer
	for i := 0; i < q.n; i++ {
		if got := q.at(i).msg.Aux; got != uint32(want+i) {
			t.Fatalf("at(%d) = %d, want %d", i, got, want+i)
		}
	}
	pop(11)
	if q.n != 0 || len(q.buf) != 16 {
		t.Fatalf("after draining: n %d, capacity %d, want 0 and 16", q.n, len(q.buf))
	}
	q = q.emptied()
	if a := testing.AllocsPerRun(100, func() {
		push(12)
		pop(12)
		q = q.emptied()
	}); a != 0 {
		t.Errorf("a grown ring allocates %.0f times per 12 pushes", a)
	}
}

// TestDebugStateNamesEveryField pins the hang dump to the in-flight record:
// DebugState prints every flight field, and every field of the handler in
// flight, as name=value, so a field added to either fails here until the
// dump shows it. The handler is named by its entry.
func TestDebugStateNamesEveryField(t *testing.T) {
	m := newRig(t, arch.DefaultConfig(), [2][]cpu.Ref{}).magics[0]
	m.handler = handlerCtx{busy: true, msg: arch.Msg{Type: arch.MsgGET, Addr: 0x1000}, wait: waitNet, blockedAt: 77}
	m.handler.slot = m.slot(m.handler.msg, false)
	m.qNetReq.push(queued{msg: arch.Msg{Type: arch.MsgGETX, Addr: 0x2000, Src: 1}})
	s := " " + m.DebugState()
	for _, typ := range []reflect.Type{reflect.TypeOf(flight{}), reflect.TypeOf(handlerCtx{})} {
		for _, f := range reflect.VisibleFields(typ) {
			if !strings.Contains(s, " "+f.Name+"=") && !strings.Contains(s, "{"+f.Name+"=") {
				t.Errorf("DebugState lacks %s=: %s", f.Name, s)
			}
		}
	}
	for _, want := range []string{"entry=pi_get_local ", "msg={GET 0x1000 ", "wait=net ", "blockedAt=77 ", "qNetReq=1[{GETX 0x2000 src=1}]", " pp={pc="} {
		if !strings.Contains(s, want) {
			t.Errorf("DebugState lacks %q: %s", want, s)
		}
	}
}
