package ppsim

import (
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
)

func TestMaskEdgeWidths(t *testing.T) {
	cases := []struct {
		width int64
		want  uint64
	}{
		{0, 0},
		{1, 1},
		{16, 0xFFFF},
		{63, 1<<63 - 1},
		{64, ^uint64(0)},
		{65, ^uint64(0)}, // widths past the register saturate
	}
	for _, c := range cases {
		if got := mask(c.width); got != c.want {
			t.Errorf("mask(%d) = %#x, want %#x", c.width, got, c.want)
		}
	}
}

// pairProg hand-builds a single-entry program from raw pairs, bypassing the
// assembler/scheduler so tests can exercise encodings the scheduler never
// emits (edge bitfield widths, intra-pair hazards, dual side effects).
func pairProg(pairs ...ppisa.Pair) *ppisa.Program {
	return &ppisa.Program{Pairs: pairs, Entries: map[string]int{"h": 0}}
}

func single(in ppisa.Instr) ppisa.Pair {
	return ppisa.Pair{A: in, B: ppisa.Instr{Op: ppisa.NOP}}
}

// runBoth executes prog once per backend and asserts identical status,
// cycles, and registers; it returns the compiled-backend PP.
func runBoth(t *testing.T, prog *ppisa.Program, setup func(p *PP)) *PP {
	t.Helper()
	var pps [2]*PP
	for i, b := range [2]Backend{BackendInterp, BackendCompiled} {
		env := &mockEnv{}
		pp := NewBackend(prog, 64<<10, NewMDC(4096, 2), env, b)
		if setup != nil {
			setup(pp)
		}
		st, cyc := pp.Start("h")
		if st != StatusDone {
			t.Fatalf("%v: status = %v", b, st)
		}
		pps[i] = pp
		_ = cyc
	}
	a, c := pps[0], pps[1]
	if a.Stats != c.Stats {
		t.Fatalf("stats diverged: interp %+v compiled %+v", a.Stats, c.Stats)
	}
	for r := 0; r < 32; r++ {
		if a.Reg(r) != c.Reg(r) {
			t.Fatalf("r%d: interp %#x compiled %#x", r, a.Reg(r), c.Reg(r))
		}
	}
	return c
}

// TestBitfieldEdgeWidths drives EXT/INS/ORFI/ANDFI at widths 0, 63, and 64
// — the boundaries of the mask computation — through both backends.
func TestBitfieldEdgeWidths(t *testing.T) {
	prog := pairProg(
		single(ppisa.Instr{Op: ppisa.ADDI, Rd: 1, Imm: -1}), // r1 = all ones
		single(ppisa.Instr{Op: ppisa.EXT, Rd: 2, Rs: 1, Imm: 0, Imm2: 64}),
		single(ppisa.Instr{Op: ppisa.EXT, Rd: 3, Rs: 1, Imm: 1, Imm2: 63}),
		single(ppisa.Instr{Op: ppisa.EXT, Rd: 4, Rs: 1, Imm: 5, Imm2: 0}),
		single(ppisa.Instr{Op: ppisa.ORFI, Rd: 5, Rs: 0, Imm: 0, Imm2: 64}),
		single(ppisa.Instr{Op: ppisa.ORFI, Rd: 6, Rs: 0, Imm: 0, Imm2: 0}),
		single(ppisa.Instr{Op: ppisa.ANDFI, Rd: 7, Rs: 1, Imm: 0, Imm2: 64}),
		single(ppisa.Instr{Op: ppisa.ANDFI, Rd: 8, Rs: 1, Imm: 0, Imm2: 0}),
		single(ppisa.Instr{Op: ppisa.ADDI, Rd: 9, Imm: 0x5A}),
		single(ppisa.Instr{Op: ppisa.INS, Rd: 9, Rs: 1, Imm: 0, Imm2: 0}),  // no-op insert
		single(ppisa.Instr{Op: ppisa.INS, Rd: 9, Rs: 1, Imm: 0, Imm2: 64}), // full replace
		single(ppisa.Instr{Op: ppisa.ADDI, Rd: 10, Imm: 0x77}),
		single(ppisa.Instr{Op: ppisa.INS, Rd: 10, Rs: 1, Imm: 1, Imm2: 63}), // keep bit 0
		single(ppisa.Instr{Op: ppisa.DONE}),
	)
	pp := runBoth(t, prog, nil)
	all := ^uint64(0)
	want := map[int]uint64{
		2: all, 3: 1<<63 - 1, 4: 0,
		5: all, 6: 0,
		7: 0, 8: all,
		9: all, 10: all&^1 | 1,
	}
	for r, w := range want {
		if got := pp.Reg(r); got != w {
			t.Errorf("r%d = %#x, want %#x", r, got, w)
		}
	}
}

func TestEntryPCUnknown(t *testing.T) {
	prog := pairProg(single(ppisa.Instr{Op: ppisa.DONE}))
	pp := NewBackend(prog, 4096, NewMDC(4096, 2), &mockEnv{}, BackendCompiled)
	if _, err := pp.EntryPC("h"); err != nil {
		t.Fatalf("known entry: %v", err)
	}
	_, err := pp.EntryPC("no_such_handler")
	if err == nil {
		t.Fatal("unknown entry: no error")
	}
	if !strings.Contains(err.Error(), "no_such_handler") || !strings.Contains(err.Error(), "entry point") {
		t.Fatalf("error %q is not descriptive", err)
	}
	// Start keeps its panic contract, but with the descriptive error.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Start on unknown entry did not panic")
		}
		if e, ok := r.(error); !ok || !strings.Contains(e.Error(), "no_such_handler") {
			t.Fatalf("panic value %v does not carry the entry name", r)
		}
	}()
	pp.Start("no_such_handler")
}

func TestStartAtMatchesStart(t *testing.T) {
	prog := build(t, refHandler, ppisa.DualIssue, false)
	for _, b := range [2]Backend{BackendInterp, BackendCompiled} {
		env1, env2 := &mockEnv{}, &mockEnv{}
		p1 := NewBackend(prog, 64<<10, NewMDC(4096, 2), env1, b)
		p2 := NewBackend(prog, 64<<10, NewMDC(4096, 2), env2, b)
		p1.InHeader(ppisa.HdrAddr, 0x2A80)
		p2.InHeader(ppisa.HdrAddr, 0x2A80)
		st1, c1 := p1.Start("h")
		pc, err := p2.EntryPC("h")
		if err != nil {
			t.Fatal(err)
		}
		st2, c2 := p2.StartAt(pc)
		if st1 != st2 || c1 != c2 {
			t.Fatalf("%v: Start (%v,%d) != StartAt (%v,%d)", b, st1, c1, st2, c2)
		}
		if len(env1.sends) != len(env2.sends) {
			t.Fatalf("%v: send counts differ", b)
		}
	}
}

// TestHazardPairFallback hand-builds pairs the scheduler would never emit
// and checks the compiled backend routes them through the reference
// interpreter: an intra-pair RAW (slot B must read PRE-pair state) and a
// taken branch paired with a SEND (the branch's action suppresses the
// send, per the interpreter's apply order).
func TestHazardPairFallback(t *testing.T) {
	raw := pairProg(
		single(ppisa.Instr{Op: ppisa.ADDI, Rd: 1, Imm: 7}),
		ppisa.Pair{
			A: ppisa.Instr{Op: ppisa.ADDI, Rd: 1, Rs: 1, Imm: 100}, // r1 = 107
			B: ppisa.Instr{Op: ppisa.ADD, Rd: 2, Rs: 1},            // reads pre-pair r1 = 7
		},
		single(ppisa.Instr{Op: ppisa.DONE}),
	)
	pp := runBoth(t, raw, nil)
	if pp.Reg(1) != 107 || pp.Reg(2) != 7 {
		t.Fatalf("r1=%d r2=%d, want 107 and 7 (snapshot semantics)", pp.Reg(1), pp.Reg(2))
	}
	if pp.code[1].fallback == nil {
		t.Fatal("RAW pair was not routed to the interpreter fallback")
	}

	dualAct := pairProg(
		ppisa.Pair{
			A: ppisa.Instr{Op: ppisa.J, Target: 1},
			B: ppisa.Instr{Op: ppisa.SEND, Imm: ppisa.SendNet},
		},
		single(ppisa.Instr{Op: ppisa.DONE}),
	)
	var envs []*mockEnv
	for _, b := range [2]Backend{BackendInterp, BackendCompiled} {
		env := &mockEnv{}
		pp := NewBackend(dualAct, 4096, NewMDC(4096, 2), env, b)
		if st, _ := pp.Start("h"); st != StatusDone {
			t.Fatalf("%v: status %v", b, st)
		}
		envs = append(envs, env)
	}
	if len(envs[0].sends) != len(envs[1].sends) {
		t.Fatalf("backends disagree on suppressed send: interp %d, compiled %d",
			len(envs[0].sends), len(envs[1].sends))
	}
}

// TestInterpImageIsReference pins what the interpreter backend is: the
// run loop over an image in which every pair of a real protocol program is
// a fallback pair with zero static statistics (eval counts them), and a
// hand-built pair with a SEND in slot A and a branch in slot B — slot A's
// action wins, so the send goes out and the branch is dropped — behaves
// the same on both images.
func TestInterpImageIsReference(t *testing.T) {
	cfg := arch.DefaultConfig()
	prog, err := protocol.Build(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	code := image(prog.Code, BackendInterp)
	if len(code) != len(prog.Code.Pairs) {
		t.Fatalf("interp image has %d pairs, program %d", len(code), len(prog.Code.Pairs))
	}
	for i := range code {
		c := &code[i]
		if c.fallback != &prog.Code.Pairs[i] || c.a != nil || c.b != nil || c.instrs|c.aluBr|c.special != 0 {
			t.Fatalf("pair %d of the interp image is not a bare fallback pair", i)
		}
	}

	sendBranch := pairProg(
		ppisa.Pair{
			A: ppisa.Instr{Op: ppisa.SEND, Imm: ppisa.SendNet},
			B: ppisa.Instr{Op: ppisa.J, Target: 2},
		},
		single(ppisa.Instr{Op: ppisa.ADDI, Rd: 1, Imm: 5}),
		single(ppisa.Instr{Op: ppisa.DONE}),
	)
	var envs [2]*mockEnv
	var pps [2]*PP
	for i, b := range [2]Backend{BackendInterp, BackendCompiled} {
		envs[i] = &mockEnv{}
		pps[i] = NewBackend(sendBranch, 4096, NewMDC(4096, 2), envs[i], b)
		if st, _ := pps[i].Start("h"); st != StatusDone {
			t.Fatalf("%v: status %v", b, st)
		}
		if len(envs[i].sends) != 1 || pps[i].Reg(1) != 5 {
			t.Fatalf("%v: %d sends, r1=%d; want the send and the fall-through pair (1, 5)", b, len(envs[i].sends), pps[i].Reg(1))
		}
	}
	if pps[0].Stats != pps[1].Stats || !reflect.DeepEqual(envs[0].sends, envs[1].sends) {
		t.Fatalf("images disagree: stats %+v vs %+v", pps[0].Stats, pps[1].Stats)
	}
}

// TestCompiledIsDefault pins the backend selection rules: New and the zero
// arch.PPDispatch build the compiled backend, and only PPDispatchInterp
// selects the interpreter (the whole-app goldens cannot tell — the two are
// cycle-identical).
func TestCompiledIsDefault(t *testing.T) {
	prog := pairProg(single(ppisa.Instr{Op: ppisa.DONE}))
	if b := New(prog, 4096, NewMDC(4096, 2), &mockEnv{}).backend; b != BackendCompiled {
		t.Fatalf("New built the %v backend", b)
	}
	if BackendFor(arch.Config{}.PPDispatch) != BackendCompiled {
		t.Fatal("the zero Config's dispatch does not map to the compiled backend")
	}
	if BackendFor(arch.PPDispatchInterp) != BackendInterp {
		t.Fatal("PPDispatchInterp does not map to the interpreter")
	}
}
