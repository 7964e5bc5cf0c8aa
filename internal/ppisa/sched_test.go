package ppisa

import (
	"testing"
	"testing/quick"
)

const schedSample = `
h1:
	mfh   r1, 1
	ext   r2, r1, 7, 20
	slli  r3, r2, 3
	ld    r4, 0(r3)
	bbs   r4, 1, .dirty
	orfi  r4, r4, 2, 1
	st    r4, 0(r3)
	mth   1, r1
	send  1|2
	done
.dirty:
	mth   1, r1
	send  0
	done
`

func assemble(t *testing.T, text string) *Source {
	t.Helper()
	src, err := Assemble(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// checkProgram verifies structural invariants of a scheduled program.
func checkProgram(t *testing.T, p *Program) {
	t.Helper()
	for i, pr := range p.Pairs {
		a, b := pr.A, pr.B
		if p.Mode == SingleIssue && b.Op != NOP {
			t.Fatalf("pair %d: single-issue has non-NOP slot B: %v", i, b)
		}
		if b.Op == NOP {
			continue
		}
		if !pairable(&a, &b) && !pairable(&b, &a) {
			t.Fatalf("pair %d: hazardous pair [%v | %v]", i, a, b)
		}
	}
	for name, idx := range p.Entries {
		if idx < 0 || idx > len(p.Pairs) {
			t.Fatalf("entry %s out of range: %d", name, idx)
		}
	}
	// Branch targets must be valid pair indices.
	for i, pr := range p.Pairs {
		for _, in := range []Instr{pr.A, pr.B} {
			if HasTarget(in.Op) && (in.Target < 0 || in.Target >= len(p.Pairs)) {
				t.Fatalf("pair %d: branch target %d out of range", i, in.Target)
			}
		}
	}
}

func TestScheduleDualIssue(t *testing.T) {
	src := assemble(t, schedSample)
	p := Schedule(src, DualIssue)
	checkProgram(t, p)
	if p.SrcInstrs != 13 {
		t.Fatalf("SrcInstrs = %d, want 13", p.SrcInstrs)
	}
	if p.StaticNonNops() != 13 {
		t.Fatalf("scheduled non-NOPs = %d, want 13 (no instruction lost)", p.StaticNonNops())
	}
	if len(p.Pairs) >= 13 {
		t.Fatalf("no pairing happened: %d pairs for 13 instructions", len(p.Pairs))
	}
	if _, ok := p.Entries["h1"]; !ok {
		t.Fatal("missing entry h1")
	}
	if _, ok := p.Entries["h1.dirty"]; !ok {
		t.Fatal("missing entry h1.dirty")
	}
}

func TestScheduleSingleIssue(t *testing.T) {
	src := assemble(t, schedSample)
	p := Schedule(src, SingleIssue)
	checkProgram(t, p)
	if len(p.Pairs) != 13 {
		t.Fatalf("single-issue pairs = %d, want 13", len(p.Pairs))
	}
	if p.CodeBytes() != 13*4 {
		t.Fatalf("CodeBytes = %d", p.CodeBytes())
	}
}

func TestScheduleRespectsDependences(t *testing.T) {
	// r2 depends on r1; r3 on r2; nothing can pair.
	src := assemble(t, `
h:	addi r1, r0, 1
	addi r2, r1, 1
	addi r3, r2, 1
	done
`)
	p := Schedule(src, DualIssue)
	checkProgram(t, p)
	// The chain forces 3 pairs; done can share the last one.
	if len(p.Pairs) != 3 {
		t.Fatalf("pairs = %d, want 3", len(p.Pairs))
	}
	if p.Pairs[2].B.Op != DONE {
		t.Fatalf("done not paired into final slot: %+v", p.Pairs[2])
	}
}

func TestScheduleMagicOrdering(t *testing.T) {
	// mth must precede send and they must not pair.
	src := assemble(t, `
h:	mth  1, r1
	send 0
	done
`)
	p := Schedule(src, DualIssue)
	checkProgram(t, p)
	seen := []Op{}
	for _, pr := range p.Pairs {
		for _, in := range []Instr{pr.A, pr.B} {
			if in.Op == MTH || in.Op == SEND {
				seen = append(seen, in.Op)
			}
		}
		if pr.A.Op == MTH && pr.B.Op == SEND || pr.A.Op == SEND && pr.B.Op == MTH {
			t.Fatal("mth paired with send")
		}
	}
	if len(seen) != 2 || seen[0] != MTH || seen[1] != SEND {
		t.Fatalf("magic order = %v", seen)
	}
}

func TestSubstituteDLXRemovesSpecials(t *testing.T) {
	src := assemble(t, schedSample)
	sub := SubstituteDLX(src)
	for i, in := range sub.Instrs {
		switch Classify(in.Op) {
		case ClassSpecial, ClassBranchBit:
			t.Fatalf("instr %d still special: %v", i, in)
		}
	}
	if len(sub.Instrs) <= len(src.Instrs) {
		t.Fatalf("substitution did not expand: %d <= %d", len(sub.Instrs), len(src.Instrs))
	}
	p := Schedule(sub, SingleIssue)
	checkProgram(t, p)
}

func TestSubstituteDLXBranchTargets(t *testing.T) {
	src := assemble(t, `
h:	ext  r1, r2, 4, 8
	beq  r1, r0, .skip
	addi r3, r0, 1
.skip:
	done
`)
	sub := SubstituteDLX(src)
	// Find the beq: its target must be the index of DONE (the .skip label).
	skip := sub.Labels["h.skip"]
	if sub.Instrs[skip].Op != DONE {
		t.Fatalf("label h.skip points at %v", sub.Instrs[skip])
	}
	found := false
	for _, in := range sub.Instrs {
		if in.Op == BEQ && in.Rs == 1 {
			found = true
			if in.Target != skip {
				t.Fatalf("beq target = %d, want %d", in.Target, skip)
			}
		}
	}
	if !found {
		t.Fatal("beq not found after substitution")
	}
}

// Property: for random dependence chains, scheduling preserves instruction
// count and never produces hazardous pairs.
func TestSchedulePropertyNoLoss(t *testing.T) {
	f := func(seeds []uint8) bool {
		ins := []Instr{}
		for _, s := range seeds {
			rd := uint8(s%27) + 1
			rs := uint8((s>>3)%27) + 1
			switch s % 5 {
			case 0:
				ins = append(ins, Instr{Op: ADD, Rd: rd, Rs: rs, Rt: 1})
			case 1:
				ins = append(ins, Instr{Op: ADDI, Rd: rd, Rs: rs, Imm: int64(s)})
			case 2:
				ins = append(ins, Instr{Op: EXT, Rd: rd, Rs: rs, Imm: int64(s % 8), Imm2: 4})
			case 3:
				ins = append(ins, Instr{Op: LD, Rd: rd, Rs: rs})
			case 4:
				ins = append(ins, Instr{Op: ST, Rd: rd, Rs: rs})
			}
		}
		ins = append(ins, Instr{Op: DONE})
		src := &Source{Instrs: ins, Labels: map[string]int{"h": 0}}
		p := Schedule(src, DualIssue)
		if p.StaticNonNops() != len(ins) {
			return false
		}
		for _, pr := range p.Pairs {
			if pr.B.Op == NOP {
				continue
			}
			a, b := pr.A, pr.B
			if !pairable(&a, &b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegHazard: the one register rule behind both dependence edges and
// pairing — RAW, WAW and WAR each order two instructions; r0, reads of
// unrelated registers and the exceptions (ST reads Rd, INS reads and writes
// it, JAL writes r28) are handled the way Def and Uses state them.
func TestRegHazard(t *testing.T) {
	add := func(rd, rs, rt uint8) Instr { return Instr{Op: ADD, Rd: rd, Rs: rs, Rt: rt} }
	for _, c := range []struct {
		name string
		a, b Instr
		want bool
	}{
		{"RAW", add(1, 2, 3), add(4, 1, 5), true},
		{"WAW", add(1, 2, 3), add(1, 4, 5), true},
		{"WAR", add(1, 2, 3), add(3, 4, 5), true},
		{"independent", add(1, 2, 3), add(4, 5, 6), false},
		{"r0 is no register", add(0, 2, 3), add(0, 0, 5), false},
		{"ST reads Rd", add(1, 2, 3), Instr{Op: ST, Rd: 1, Rs: 4}, true},
		{"ST writes nothing", Instr{Op: ST, Rd: 1, Rs: 4}, add(5, 6, 7), false},
		{"INS reads Rd", add(1, 2, 3), Instr{Op: INS, Rd: 1, Rs: 4, Imm: 0, Imm2: 4}, true},
		{"JAL writes r28", Instr{Op: JAL, Rd: 28}, Instr{Op: JR, Rs: 28}, true},
		{"branch reads Rt", add(1, 2, 3), Instr{Op: BEQ, Rs: 4, Rt: 1}, true},
		{"MTH reads Rs", add(1, 2, 3), Instr{Op: MTH, Rs: 1, Imm: HdrAddr}, true},
	} {
		if got := regHazard(&c.a, &c.b); got != c.want {
			t.Errorf("%s: regHazard(%v, %v) = %v, want %v", c.name, &c.a, &c.b, got, c.want)
		}
	}
}
