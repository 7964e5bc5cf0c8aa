package ppisa

import (
	"fmt"
	"strconv"
	"strings"
)

// Source is an assembled-but-unscheduled handler program: a linear
// instruction list with resolved branch targets and named entry points.
type Source struct {
	Instrs []Instr
	Labels map[string]int // label -> instruction index
}

// Assemble parses PP assembly text. syms supplies named constants (layout
// offsets, bit positions, message types). Registers are written r0..r31;
// r29-r31 are reserved for assembler temporaries (the DLX substitution pass
// and pseudo-instructions), and using them explicitly is an error.
//
// Syntax:
//
//	label:              ; global label
//	.local:             ; local label, scoped to the preceding global label
//	op a, b, c          ; operands: rN, immediate expressions, labels
//	ld r1, OFF(r2)      ; memory operands
//	; comment           ; also # comments
//
// Immediate expressions support + - | << and parentheses-free left-to-right
// evaluation over numbers and symbols.
//
// Pseudo-instructions: li rd, imm (expands to addi or lui/ori sequences),
// mv rd, rs, b label, not rd, rs.
func Assemble(text string, syms map[string]int64) (*Source, error) {
	a := &asm{syms: syms, labels: make(map[string]int)}
	if err := a.parse(text); err != nil {
		return nil, err
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	return &Source{Instrs: a.instrs, Labels: a.labels}, nil
}

type asm struct {
	syms    map[string]int64
	instrs  []Instr
	labels  map[string]int
	scope   string // current global label for .local scoping
	lineNum int
}

func (a *asm) errf(format string, args ...interface{}) error {
	return fmt.Errorf("ppisa: line %d: %s", a.lineNum, fmt.Sprintf(format, args...))
}

func (a *asm) parse(text string) error {
	for _, raw := range strings.Split(text, "\n") {
		a.lineNum++
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by an instruction on the same line.
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t,(") {
				break
			}
			name := line[:i]
			if err := a.defineLabel(name); err != nil {
				return err
			}
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if err := a.parseInstr(line); err != nil {
			return err
		}
	}
	return nil
}

func (a *asm) defineLabel(name string) error {
	full := name
	if strings.HasPrefix(name, ".") {
		if a.scope == "" {
			return a.errf("local label %s before any global label", name)
		}
		full = a.scope + name
	} else {
		a.scope = name
	}
	if _, dup := a.labels[full]; dup {
		return a.errf("duplicate label %s", full)
	}
	a.labels[full] = len(a.instrs)
	return nil
}

func (a *asm) parseInstr(line string) error {
	var mnem, rest string
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	} else {
		mnem = line
	}
	mnem = strings.ToLower(mnem)
	var ops []string
	if rest != "" {
		for _, f := range strings.Split(rest, ",") {
			ops = append(ops, strings.TrimSpace(f))
		}
	}
	return a.emit(mnem, ops)
}

// reg parses rN.
func (a *asm) reg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, a.errf("expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, a.errf("bad register %q", s)
	}
	if n >= 29 {
		return 0, a.errf("register r%d is reserved for the assembler", n)
	}
	return uint8(n), nil
}

// imm evaluates an immediate expression.
func (a *asm) imm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf("empty immediate")
	}
	// Tokenize on operators, left-to-right.
	val := int64(0)
	op := byte('+')
	i := 0
	for i < len(s) {
		// find next operator at top level
		j := i
		for j < len(s) && !strings.ContainsRune("+|", rune(s[j])) &&
			!(s[j] == '<' && j+1 < len(s) && s[j+1] == '<') &&
			!(s[j] == '-' && j > i) {
			j++
		}
		term := strings.TrimSpace(s[i:j])
		tv, err := a.term(term)
		if err != nil {
			return 0, err
		}
		switch op {
		case '+':
			val += tv
		case '-':
			val -= tv
		case '|':
			val |= tv
		case '<':
			val <<= uint(tv)
		}
		if j >= len(s) {
			break
		}
		op = s[j]
		if op == '<' {
			j++ // skip second '<'
		}
		i = j + 1
	}
	return val, nil
}

func (a *asm) term(s string) (int64, error) {
	if s == "" {
		return 0, a.errf("empty term in immediate expression")
	}
	neg := false
	if s[0] == '-' {
		neg, s = true, s[1:]
	}
	var v int64
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		v = n
	} else if sv, ok := a.syms[s]; ok {
		v = sv
	} else {
		return 0, a.errf("unknown symbol %q", s)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// memOperand parses imm(rN).
func (a *asm) memOperand(s string) (int64, uint8, error) {
	i := strings.Index(s, "(")
	if i < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, a.errf("expected offset(reg), got %q", s)
	}
	off := int64(0)
	if strings.TrimSpace(s[:i]) != "" {
		v, err := a.imm(s[:i])
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := a.reg(strings.TrimSpace(s[i+1 : len(s)-1]))
	if err != nil {
		return 0, 0, err
	}
	return off, r, nil
}

func (a *asm) labelRef(s string) string {
	if strings.HasPrefix(s, ".") {
		return a.scope + s
	}
	return s
}

// mnemonics maps every opcode's table name to the opcode.
var mnemonics = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// pseudos are the pseudo-instructions that are one real instruction with
// their own operand syntax and a fixed immediate. li, which expands to a
// sequence, has its own case in emit.
var pseudos = map[string]struct {
	op   Op
	args string
	imm  int64
}{
	"mv":  {ADD, "ds", 0},   // add rd, rs, r0
	"not": {XORI, "ds", -1}, // xori rd, rs, -1
	"b":   {J, "L", 0},      // j label
}

func (a *asm) emit(mnem string, ops []string) error {
	if mnem == "li" {
		in, err := a.operands(mnem, Instr{Op: ADDI}, "di", ops)
		if err != nil {
			return err
		}
		a.instrs = append(a.instrs, LoadImm(in.Rd, in.Imm)...)
		return nil
	}
	in, args := Instr{}, ""
	if op, ok := mnemonics[mnem]; ok {
		in.Op, args = op, opTable[op].args
	} else if p, ok := pseudos[mnem]; ok {
		in.Op, in.Imm, args = p.op, p.imm, p.args
	} else {
		return a.errf("unknown mnemonic %q", mnem)
	}
	in, err := a.operands(mnem, in, args, ops)
	if err != nil {
		return err
	}
	if in.Op == JAL {
		in.Rd = 28 // link register convention: r28
	}
	a.instrs = append(a.instrs, in)
	return nil
}

// operands parses ops into in's fields as the operand syntax args spells
// them (see opInfo). Range checks run once every operand has parsed, so a
// malformed operand is reported before an out-of-range one.
func (a *asm) operands(mnem string, in Instr, args string, ops []string) (Instr, error) {
	if len(ops) != len(args) {
		return in, a.errf("%s wants %d operands, got %d", mnem, len(args), len(ops))
	}
	for k, c := range args {
		var err error
		switch s := ops[k]; c {
		case 'd':
			in.Rd, err = a.reg(s)
		case 's':
			in.Rs, err = a.reg(s)
		case 't':
			in.Rt, err = a.reg(s)
		case 'i', 'b', 'h':
			in.Imm, err = a.imm(s)
		case 'w':
			in.Imm2, err = a.imm(s)
		case 'm':
			in.Imm, in.Rs, err = a.memOperand(s)
		case 'L':
			in.Sym = a.labelRef(s)
		}
		if err != nil {
			return in, err
		}
	}
	for _, c := range args {
		switch {
		case c == 'b' && (in.Imm < 0 || in.Imm > 63):
			return in, a.errf("bit %d out of range", in.Imm)
		case c == 'h' && (in.Imm < 0 || in.Imm >= NumHdrFields):
			return in, a.errf("header field %d out of range", in.Imm)
		case c == 'w' && (in.Imm < 0 || in.Imm2 <= 0 || in.Imm+in.Imm2 > 64):
			return in, a.errf("%s field [%d,%d) out of range", mnem, in.Imm, in.Imm+in.Imm2)
		}
	}
	return in, nil
}

// LoadImm returns the shortest instruction sequence materializing v in rd.
func LoadImm(rd uint8, v int64) []Instr {
	if v >= -32768 && v < 32768 {
		return []Instr{{Op: ADDI, Rd: rd, Imm: v}}
	}
	if v >= 0 && v < 1<<32 {
		seq := []Instr{{Op: LUI, Rd: rd, Imm: (v >> 16) & 0xFFFF}}
		if lo := v & 0xFFFF; lo != 0 {
			seq = append(seq, Instr{Op: ORI, Rd: rd, Rs: rd, Imm: lo})
		}
		return seq
	}
	// General 64-bit: build the high 32 bits, shift, or in the low 32.
	seq := LoadImm(rd, (v>>32)&0xFFFFFFFF)
	seq = append(seq, Instr{Op: SLLI, Rd: rd, Rs: rd, Imm: 32})
	lo := v & 0xFFFFFFFF
	if hi16 := (lo >> 16) & 0xFFFF; hi16 != 0 {
		seq = append(seq,
			Instr{Op: LUI, Rd: 31, Imm: hi16},
			Instr{Op: ORI, Rd: 31, Rs: 31, Imm: lo & 0xFFFF},
			Instr{Op: OR, Rd: rd, Rs: rd, Rt: 31})
	} else if lo != 0 {
		seq = append(seq, Instr{Op: ORI, Rd: rd, Rs: rd, Imm: lo})
	}
	return seq
}

func (a *asm) resolve() error {
	for i := range a.instrs {
		in := &a.instrs[i]
		if in.Sym == "" {
			continue
		}
		t, ok := a.labels[in.Sym]
		if !ok {
			return fmt.Errorf("ppisa: undefined label %q", in.Sym)
		}
		if t == len(a.instrs) {
			return fmt.Errorf("ppisa: branch to label %q, which ends the program", in.Sym)
		}
		in.Target = t
	}
	return nil
}
