package ppsim

import (
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/ppisa"
)

// mockEnv records interface activity and can simulate full queues.
type mockEnv struct {
	sends     []OutHeader
	memReads  []uint64
	memWrites []uint64
	mdcFills  int
	blockN    int // number of TrySend calls to reject before accepting
}

func (m *mockEnv) TrySend(h OutHeader, dt uint64) bool {
	if m.blockN > 0 {
		m.blockN--
		return false
	}
	m.sends = append(m.sends, h)
	return true
}
func (m *mockEnv) MemRead(a, dt uint64)  { m.memReads = append(m.memReads, a) }
func (m *mockEnv) MemWrite(a, dt uint64) { m.memWrites = append(m.memWrites, a) }
func (m *mockEnv) MDCFill(a uint64, wb bool, dt uint64) uint64 {
	m.mdcFills++
	return 29
}

func build(t *testing.T, text string, mode ppisa.Mode, subst bool) *ppisa.Program {
	t.Helper()
	src, err := ppisa.Assemble(text, map[string]int64{
		"H_TYPE": 0, "H_ADDR": 1, "H_SRC": 2, "H_REQ": 3, "H_AUX": 4,
		"NET": 0, "PI": 1, "DATA": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if subst {
		src = ppisa.SubstituteDLX(src)
	}
	return ppisa.Schedule(src, mode)
}

func newPP(prog *ppisa.Program, env Env) *PP {
	return New(prog, 64<<10, NewMDC(4096, 2), env)
}

// The reference handler exercises ALU, field ops, memory, branches, loops,
// and the MAGIC interface.
const refHandler = `
h:
	mfh   r1, H_ADDR
	ext   r2, r1, 7, 16      ; line number
	slli  r3, r2, 3          ; header offset
	ld    r4, 0(r3)
	bbs   r4, 0, .dirty
	orfi  r4, r4, 0, 1       ; mark bit 0
	ins   r4, r2, 16, 16     ; stash line number in a field
	st    r4, 0(r3)
	addi  r5, r0, 0
	addi  r6, r0, 3
.loop:
	addi  r5, r5, 1
	bne   r5, r6, .loop
	mth   H_ADDR, r1
	mth   H_TYPE, r5
	send  PI|DATA
	done
.dirty:
	ffs   r7, r4
	mth   H_AUX, r7
	send  NET
	done
`

func runRef(t *testing.T, mode ppisa.Mode, subst bool, hdrAddr, seed uint64) (*PP, *mockEnv, Status, uint64) {
	t.Helper()
	prog := build(t, refHandler, mode, subst)
	env := &mockEnv{}
	pp := newPP(prog, env)
	// Pre-seed the directory word the handler will read.
	line := (hdrAddr >> 7) & 0xFFFF
	*pp.Mem.Word(line) = seed
	pp.InHeader(ppisa.HdrAddr, hdrAddr)
	st, cyc := pp.Start("h")
	return pp, env, st, cyc
}

func TestHandlerCleanPath(t *testing.T) {
	pp, env, st, cyc := runRef(t, ppisa.DualIssue, false, 0x2A80, 0) // line 85
	if st != StatusDone {
		t.Fatalf("status = %v", st)
	}
	if len(env.sends) != 1 {
		t.Fatalf("sends = %d", len(env.sends))
	}
	s := env.sends[0]
	if s.Iface != ppisa.SendPI || !s.Data || s.Addr != 0x2A80 || s.Type != 3 {
		t.Fatalf("send = %+v", s)
	}
	// Directory word updated: bit 0 set, line number in bits 16..31.
	want := uint64(1) | 85<<16
	if got := pp.Mem.Load(85); got != want {
		t.Fatalf("dir word = %#x, want %#x", got, want)
	}
	if cyc == 0 || cyc > 60 {
		t.Fatalf("cycles = %d, implausible", cyc)
	}
}

func TestHandlerDirtyPath(t *testing.T) {
	_, env, st, _ := runRef(t, ppisa.DualIssue, false, 0x80, 0x9) // bit0 set
	if st != StatusDone {
		t.Fatalf("status = %v", st)
	}
	if len(env.sends) != 1 || env.sends[0].Iface != ppisa.SendNet {
		t.Fatalf("sends = %+v", env.sends)
	}
	if env.sends[0].Aux != 0 { // ffs(0x9) = 0
		t.Fatalf("aux = %d, want 0", env.sends[0].Aux)
	}
}

// All three PP modes must compute identical architectural results; only the
// cycle counts differ.
func TestModeEquivalence(t *testing.T) {
	type result struct {
		mem   uint64
		sends []OutHeader
	}
	get := func(mode ppisa.Mode, subst bool) (result, uint64) {
		pp, env, st, cyc := runRef(t, mode, subst, 0x2A80, 0)
		if st != StatusDone {
			t.Fatalf("status = %v", st)
		}
		return result{mem: pp.Mem.Load(85), sends: env.sends}, cyc
	}
	dual, cDual := get(ppisa.DualIssue, false)
	single, cSingle := get(ppisa.SingleIssue, false)
	nospec, cSub := get(ppisa.SingleIssue, true)
	if dual.mem != single.mem || dual.mem != nospec.mem {
		t.Fatalf("memory differs: %#x %#x %#x", dual.mem, single.mem, nospec.mem)
	}
	for i := range dual.sends {
		if dual.sends[i] != single.sends[i] || dual.sends[i] != nospec.sends[i] {
			t.Fatalf("send %d differs across modes", i)
		}
	}
	if !(cDual < cSingle && cSingle < cSub) {
		t.Fatalf("cycle ordering violated: dual=%d single=%d subst=%d", cDual, cSingle, cSub)
	}
}

func TestBlockedSendResume(t *testing.T) {
	prog := build(t, `
h:	mth  H_ADDR, r1
	send NET
	addi r9, r0, 7
	done
`, ppisa.DualIssue, false)
	env := &mockEnv{blockN: 2}
	pp := newPP(prog, env)
	st, _ := pp.Start("h")
	if st != StatusBlockedSend {
		t.Fatalf("status = %v, want blocked", st)
	}
	if pp.idle() {
		t.Fatal("PP should still be running")
	}
	st, _ = pp.Resume() // still blocked once more
	if st != StatusBlockedSend {
		t.Fatalf("status = %v, want blocked again", st)
	}
	st, _ = pp.Resume()
	if st != StatusDone {
		t.Fatalf("status = %v, want done", st)
	}
	if len(env.sends) != 1 {
		t.Fatalf("sends = %d", len(env.sends))
	}
	if pp.regs[9] != 7 {
		t.Fatalf("post-send instruction lost: r9 = %d", pp.regs[9])
	}
}

func TestWaitPC(t *testing.T) {
	prog := build(t, `
h:	waitpc
	mfh  r1, 5
	mth  H_AUX, r1
	send NET
	done
`, ppisa.DualIssue, false)
	env := &mockEnv{}
	pp := newPP(prog, env)
	st, _ := pp.Start("h")
	if st != StatusWaitPC {
		t.Fatalf("status = %v, want WaitPC", st)
	}
	pp.SetPCResponse(1)
	st, _ = pp.Resume()
	if st != StatusDone {
		t.Fatalf("status = %v", st)
	}
	if env.sends[0].Aux != 1 {
		t.Fatalf("aux = %d, want 1 (PC response)", env.sends[0].Aux)
	}
}

func TestMDCMissAddsPenalty(t *testing.T) {
	prog := build(t, `
h:	ld   r1, 0(r0)
	done
`, ppisa.DualIssue, false)
	env := &mockEnv{}
	pp := newPP(prog, env)
	_, cyc := pp.Start("h")
	if env.mdcFills != 1 {
		t.Fatalf("mdcFills = %d", env.mdcFills)
	}
	if cyc < 29 {
		t.Fatalf("cycles = %d, want >= 29 (MDC miss)", cyc)
	}
	// Second access hits.
	env2 := &mockEnv{}
	pp2 := newPP(prog, env2)
	pp2.Start("h")
	_, cyc2 := pp2.Start("h")
	if cyc2 >= 29 {
		t.Fatalf("second access should hit the MDC: %d cycles", cyc2)
	}
}

func TestStatsAccumulate(t *testing.T) {
	pp, _, _, _ := runRef(t, ppisa.DualIssue, false, 0x2A80, 0)
	s := pp.Stats
	if s.Pairs == 0 || s.Instrs == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Instrs <= s.Pairs || s.Instrs > 2*s.Pairs { // dual-issue efficiency in (1, 2]
		t.Fatalf("dual-issue efficiency = %d instructions in %d pairs", s.Instrs, s.Pairs)
	}
	if s.Special == 0 {
		t.Fatal("special instructions not counted")
	}
	if s.Special >= s.ALUOrBranch { // special use in (0, 1)
		t.Fatalf("special use = %d of %d ALU and branch instructions", s.Special, s.ALUOrBranch)
	}
}

func TestMemRdWr(t *testing.T) {
	prog := build(t, `
h:	li    r1, 0x1400
	memrd r1
	memwr r1
	done
`, ppisa.DualIssue, false)
	env := &mockEnv{}
	pp := newPP(prog, env)
	if st, _ := pp.Start("h"); st != StatusDone {
		t.Fatalf("status = %v", st)
	}
	if len(env.memReads) != 1 || env.memReads[0] != 0x1400 {
		t.Fatalf("memReads = %v", env.memReads)
	}
	if len(env.memWrites) != 1 || env.memWrites[0] != 0x1400 {
		t.Fatalf("memWrites = %v", env.memWrites)
	}
}

// TestDebugStateNamesEveryField pins the hang dump to the in-flight record:
// DebugState prints every flight field as name=value, so a field added to
// the record fails here until the dump shows it.
func TestDebugStateNamesEveryField(t *testing.T) {
	pp := newPP(build(t, "h:\tdone\n", ppisa.DualIssue, false), &mockEnv{})
	s := " " + pp.DebugState()
	for _, f := range reflect.VisibleFields(reflect.TypeOf(flight{})) {
		if !strings.Contains(s, " "+f.Name+"=") {
			t.Errorf("DebugState lacks %s=: %s", f.Name, s)
		}
	}
}
