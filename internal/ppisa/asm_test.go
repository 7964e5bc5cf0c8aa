package ppisa

import (
	"reflect"
	"strings"
	"testing"
)

func TestAssembleBasic(t *testing.T) {
	src, err := Assemble(`
; a tiny handler
start:
	addi  r1, r0, 5
	add   r2, r1, r1
.loop:
	addi  r2, r2, -1
	bgtz  r2, .loop
	done
other:
	mfh   r3, 1
	done
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Instrs) != 7 {
		t.Fatalf("got %d instructions, want 7", len(src.Instrs))
	}
	if src.Labels["start"] != 0 || src.Labels["start.loop"] != 2 || src.Labels["other"] != 5 {
		t.Fatalf("labels = %v", src.Labels)
	}
	if src.Instrs[3].Op != BGTZ || src.Instrs[3].Target != 2 {
		t.Fatalf("branch = %+v", src.Instrs[3])
	}
}

func TestAssembleSymbolsAndExpressions(t *testing.T) {
	syms := map[string]int64{"BASE": 0x100, "B_DIRTY": 3, "NET": 0, "DATA": 2}
	src, err := Assemble(`
h:	ld    r1, BASE+8(r2)
	bbs   r1, B_DIRTY, .d
	send  NET|DATA
	done
.d:	li    r4, 0x12345
	li    r5, 1<<20
	done
`, syms)
	if err != nil {
		t.Fatal(err)
	}
	if src.Instrs[0].Imm != 0x108 {
		t.Fatalf("ld offset = %#x, want 0x108", src.Instrs[0].Imm)
	}
	if src.Instrs[1].Imm != 3 {
		t.Fatalf("bbs bit = %d", src.Instrs[1].Imm)
	}
	if src.Instrs[2].Imm != 2 {
		t.Fatalf("send flags = %d", src.Instrs[2].Imm)
	}
	// li 0x12345 expands to lui+ori
	if src.Instrs[4].Op != LUI || src.Instrs[4].Imm != 1 {
		t.Fatalf("li expansion = %v", src.Instrs[4])
	}
	if src.Instrs[5].Op != ORI || src.Instrs[5].Imm != 0x2345 {
		t.Fatalf("li expansion = %v", src.Instrs[5])
	}
	// li 1<<20 expands to lui only
	if src.Instrs[6].Op != LUI || src.Instrs[6].Imm != 0x10 {
		t.Fatalf("li 1<<20 = %v", src.Instrs[6])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"frob r1, r2", "unknown mnemonic"},
		{"add r1, r2", "wants 3 operands"},
		{"add r1, r2, r99", "bad register"},
		{"add r1, r2, r30", "reserved"},
		{"j nowhere", "undefined label"},
		{"x: addi r1, r0, UNDEF", "unknown symbol"},
		{"x: nop\nx: nop", "duplicate label"},
		{".l: nop", "before any global label"},
		{"bbs r1, 71, x\nx: nop", "out of range"},
		{"mfh r1, 9", "header field"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) err = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestLoadImm64(t *testing.T) {
	// Spot-check that the sequence semantics match by symbolic evaluation.
	eval := func(seq []Instr) uint64 {
		var regs [32]uint64
		for _, in := range seq {
			switch in.Op {
			case ADDI:
				regs[in.Rd] = regs[in.Rs] + uint64(in.Imm)
			case LUI:
				regs[in.Rd] = uint64(in.Imm&0xFFFF) << 16
			case ORI:
				regs[in.Rd] = regs[in.Rs] | uint64(in.Imm)
			case SLLI:
				regs[in.Rd] = regs[in.Rs] << uint(in.Imm)
			case OR:
				regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
			default:
				t.Fatalf("unexpected op %v in LoadImm sequence", in.Op)
			}
		}
		return regs[1]
	}
	for _, v := range []int64{0, 1, -1, 32767, -32768, 65536, 0xDEAD0000, 0x123456789ABCDEF0 & (1<<63 - 1), -0x123456789} {
		if got := eval(LoadImm(1, v)); got != uint64(v) {
			t.Errorf("LoadImm(%#x) evaluates to %#x", v, got)
		}
	}
}

// FuzzAssemble feeds the assembler arbitrary text. It must never panic, and
// a program it accepts must assemble the same way twice and schedule in
// every mode (dual, single, and DLX substitution scheduled single) without
// losing or duplicating a non-NOP instruction, into hazard-free pairs whose
// branch targets are pairs.
func FuzzAssemble(f *testing.F) {
	for _, seed := range []string{
		schedSample,
		"a: b: nop\nc:\n done",
		"h: li r4, 0x123456789\n ins r4, r5, 40, 24\n andfi r4, r4, 3, 50\n ffs r2, r4\n done",
		"h: jal .s\n bbc r1, 20, h\n b .s\n.s: jr r28",
		"h: beq r1, r2, .t\n.t:",
		"bbs r1, 71, x\nx: nop",
		"x: ld r1, B+8|2<<1(r2)\n st r1, -4(r2)\n mth 3, r1\n send 1|2",
	} {
		f.Add(seed)
	}
	syms := map[string]int64{"B": 0x40}
	f.Fuzz(func(t *testing.T, text string) {
		src, err := Assemble(text, syms)
		if err != nil {
			return
		}
		if again, _ := Assemble(text, syms); !reflect.DeepEqual(src, again) {
			t.Fatalf("assembling twice differs:\n%#v\n%#v", src, again)
		}
		for _, p := range []*Program{
			Schedule(src, DualIssue),
			Schedule(src, SingleIssue),
			Schedule(SubstituteDLX(src), SingleIssue),
		} {
			if p.StaticNonNops() != p.SrcInstrs {
				t.Fatalf("mode %v: %d non-NOP slots scheduled from %d source instructions", p.Mode, p.StaticNonNops(), p.SrcInstrs)
			}
			checkProgram(t, p)
		}
	})
}

// TestAssembleBranchPastEnd: a label with no instruction after it may name
// an entry point but not a branch target, which would leave the image.
func TestAssembleBranchPastEnd(t *testing.T) {
	if _, err := Assemble("h: nop\nend:", nil); err != nil {
		t.Fatalf("trailing label rejected: %v", err)
	}
	if _, err := Assemble("h: beq r1, r2, .t\n.t:", nil); err == nil || !strings.Contains(err.Error(), "ends the program") {
		t.Fatalf("branch past the end: err = %v", err)
	}
}
