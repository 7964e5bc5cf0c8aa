package ppisa

import (
	"fmt"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := map[Op]Class{
		NOP: ClassNop,
		ADD: ClassALU, SLTI: ClassALU, LUI: ClassALU,
		FFS: ClassSpecial, EXT: ClassSpecial, INS: ClassSpecial,
		ORFI: ClassSpecial, ANDFI: ClassSpecial,
		BBS: ClassBranchBit, BBC: ClassBranchBit,
		LD: ClassMem, ST: ClassMem,
		BEQ: ClassBranch, J: ClassBranch, JR: ClassBranch,
		MFH: ClassMagic, SEND: ClassMagic, DONE: ClassMagic, WAITPC: ClassMagic,
	}
	for op, want := range cases {
		if got := Classify(op); got != want {
			t.Errorf("Classify(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestIsControl(t *testing.T) {
	for _, op := range []Op{BEQ, BNE, BLEZ, BGTZ, BBS, BBC, J, JAL, JR, DONE} {
		if !IsControl(op) {
			t.Errorf("%v should be control", op)
		}
	}
	for _, op := range []Op{ADD, LD, SEND, MFH, WAITPC} {
		if IsControl(op) {
			t.Errorf("%v should not be control", op)
		}
	}
}

func TestDefUses(t *testing.T) {
	in := Instr{Op: ADD, Rd: 3, Rs: 1, Rt: 2}
	if in.Def() != 3 {
		t.Fatalf("Def = %d", in.Def())
	}
	uses := in.Uses(nil)
	if len(uses) != 2 || uses[0] != 1 || uses[1] != 2 {
		t.Fatalf("Uses = %v", uses)
	}
	// r0 never counts.
	z := Instr{Op: ADD, Rd: 0, Rs: 0, Rt: 5}
	if z.Def() != -1 {
		t.Fatal("write to r0 counted as def")
	}
	if u := z.Uses(nil); len(u) != 1 || u[0] != 5 {
		t.Fatalf("Uses = %v", u)
	}
	// INS reads its destination; ST reads its data register.
	ins := Instr{Op: INS, Rd: 4, Rs: 2, Imm: 8, Imm2: 4}
	if u := ins.Uses(nil); len(u) != 2 {
		t.Fatalf("INS uses = %v", u)
	}
	st := Instr{Op: ST, Rd: 7, Rs: 3}
	if st.Def() != -1 {
		t.Fatal("ST counted as def")
	}
	if u := st.Uses(nil); len(u) != 2 {
		t.Fatalf("ST uses = %v", u)
	}
}

// TestOpTableRoundTrip assembles one line per opcode and pseudo-instruction,
// built from the operand syntax in the table, and checks the fields it
// fills and that String prints the line back (branch targets as @index).
func TestOpTableRoundTrip(t *testing.T) {
	// One spelling per operand letter, and the fields it sets.
	operand := map[rune]struct {
		text string
		set  func(*Instr)
	}{
		'd': {"r3", func(in *Instr) { in.Rd = 3 }},
		's': {"r5", func(in *Instr) { in.Rs = 5 }},
		't': {"r7", func(in *Instr) { in.Rt = 7 }},
		'i': {"12", func(in *Instr) { in.Imm = 12 }},
		'w': {"9", func(in *Instr) { in.Imm2 = 9 }},
		'b': {"40", func(in *Instr) { in.Imm = 40 }},
		'h': {"2", func(in *Instr) { in.Imm = HdrSrc }},
		'm': {"16(r5)", func(in *Instr) { in.Imm, in.Rs = 16, 5 }},
		'L': {"h", func(in *Instr) { in.Sym, in.Target = "h", 1 }},
	}
	line := func(mnem, args string) (text string, want Instr) {
		text = mnem
		for k, c := range args {
			if k == 0 {
				text += " "
			} else {
				text += ", "
			}
			text += operand[c].text
			operand[c].set(&want)
		}
		return text, want
	}
	check := func(text string, want Instr, print string) {
		t.Helper()
		src, err := Assemble("g: nop\nh: "+text, nil)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if len(src.Instrs) != 2 {
			t.Fatalf("%q: %d instructions, want 1", text, len(src.Instrs)-1)
		}
		if got := src.Instrs[1]; got != want {
			t.Errorf("%q assembles to %#v, want %#v", text, got, want)
		}
		if got := src.Instrs[1].String(); got != print {
			t.Errorf("%q prints as %q, want %q", text, got, print)
		}
	}
	for op := Op(0); op < NumOps; op++ {
		text, want := line(op.String(), opTable[op].args)
		want.Op = op
		if op == JAL {
			want.Rd = 28
		}
		check(text, want, strings.ReplaceAll(text, " h", " @1"))
	}
	for mnem, p := range pseudos {
		text, want := line(mnem, p.args)
		want.Op, want.Imm = p.op, p.imm
		print := map[string]string{
			"mv":  "add r3, r5, r0",
			"not": "xori r3, r5, -1",
			"b":   "j @1",
		}[mnem]
		check(text, want, print)
	}
	if got := Op(NumOps + 1).String(); got != fmt.Sprintf("op(%d)", NumOps+1) {
		t.Errorf("out-of-range op prints as %q", got)
	}
}

// Dual-issue scheduling must never lose or duplicate instructions across a
// realistic multi-handler program (regression companion to the structural
// property test in sched_test.go).
func TestScheduleProgramConservation(t *testing.T) {
	src := assemble(t, schedSample)
	for _, mode := range []Mode{DualIssue, SingleIssue} {
		p := Schedule(src, mode)
		if p.StaticNonNops() != p.SrcInstrs {
			t.Fatalf("mode %v: %d scheduled, %d source", mode, p.StaticNonNops(), p.SrcInstrs)
		}
	}
	// DLX substitution grows the instruction count but also conserves.
	sub := SubstituteDLX(src)
	p := Schedule(sub, SingleIssue)
	nonNop := 0
	for _, in := range sub.Instrs {
		if in.Op != NOP {
			nonNop++
		}
	}
	if p.StaticNonNops() != nonNop {
		t.Fatalf("substituted: %d scheduled, %d source", p.StaticNonNops(), nonNop)
	}
}

func TestAssembleCommentsAndBlank(t *testing.T) {
	src, err := Assemble(`
; full-line comment
# hash comment

h:  nop  ; trailing
	done # trailing hash
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Instrs) != 2 {
		t.Fatalf("instrs = %d, want 2", len(src.Instrs))
	}
}

func TestAssembleLabelOnlyLineAndSameLine(t *testing.T) {
	src, err := Assemble("a: b: nop\nc:\n done", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Labels["a"] != 0 || src.Labels["b"] != 0 || src.Labels["c"] != 1 {
		t.Fatalf("labels = %v", src.Labels)
	}
}

func TestCodeBytesBySlots(t *testing.T) {
	src := assemble(t, "h:\tadd r1, r2, r3\n\tdone")
	d := Schedule(src, DualIssue)
	if d.CodeBytes() != len(d.Pairs)*8 {
		t.Fatal("dual-issue code size must count both slots")
	}
	s := Schedule(src, SingleIssue)
	if s.CodeBytes() != len(s.Pairs)*4 {
		t.Fatal("single-issue code size counts one slot")
	}
	if !strings.Contains(d.Pairs[0].A.String(), "add") {
		t.Fatal("unexpected slot contents")
	}
}
