// Package ppisa defines the instruction set of MAGIC's protocol processor
// (PP) and provides an assembler, a static dual-issue scheduler (the role
// PPtwine played in the paper), and the DLX-substitution transform used to
// evaluate the PP's special instructions (Table 5.3, Section 5.3).
//
// The PP is a 64-bit DLX-derived core with 32 general registers (r0 wired to
// zero), extended with bitfield insert/extract, field-immediate ALU
// operations, find-first-set, and branch-on-bit instructions, plus the MAGIC
// interface operations that read incoming message headers, compose outgoing
// messages, and direct the hardwired data-transfer logic.
package ppisa

import (
	"fmt"
	"strings"
)

// Op is a PP opcode.
type Op uint8

const (
	NOP Op = iota

	// Register-register ALU.
	ADD
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU

	// Register-immediate ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI
	LUI

	// FLASH special instructions (Section 5.3).
	FFS   // find first set bit
	EXT   // extract bitfield
	INS   // insert bitfield
	ORFI  // OR field immediate (a string of consecutive ones)
	ANDFI // AND field immediate (a string of consecutive zeros)

	// Memory, through the MAGIC data cache.
	LD
	ST

	// Control transfer.
	BEQ
	BNE
	BLEZ
	BGTZ
	BBS // branch on bit set
	BBC // branch on bit clear
	J
	JAL
	JR

	// MAGIC interface.
	MFH    // move from incoming-message header field
	MTH    // move to outgoing-message header field
	SEND   // launch outgoing message (imm encodes interface and data flag)
	MEMRD  // initiate memory read of the line addressed by rs into the data buffer
	MEMWR  // write the data buffer back to the line addressed by rs
	WAITPC // stall until the processor-cache intervention response arrives
	DONE   // handler complete; return to the inbox

	NumOps
)

// opInfo is one row of the opcode table: the mnemonic, the operand syntax
// and the statistics class. args spells the operands in source order, one
// letter each:
//
//	d, s, t  the Rd, Rs and Rt registers
//	i        Imm
//	w        Imm2, a field width; Imm+Imm2 must describe a field inside 64 bits
//	b        Imm, a bit number 0-63
//	h        Imm, a header field index
//	m        a memory operand off(rs): Imm and Rs
//	L        a label, resolved into Target
//
// The assembler, Instr.String, Def/Uses, Classify, IsControl and HasTarget
// all read this table, so an opcode's operands are stated only here.
type opInfo struct {
	name  string
	args  string
	class Class
}

var opTable = [NumOps]opInfo{
	NOP: {"nop", "", ClassNop},

	ADD:  {"add", "dst", ClassALU},
	SUB:  {"sub", "dst", ClassALU},
	AND:  {"and", "dst", ClassALU},
	OR:   {"or", "dst", ClassALU},
	XOR:  {"xor", "dst", ClassALU},
	SLL:  {"sll", "dst", ClassALU},
	SRL:  {"srl", "dst", ClassALU},
	SRA:  {"sra", "dst", ClassALU},
	SLT:  {"slt", "dst", ClassALU},
	SLTU: {"sltu", "dst", ClassALU},

	ADDI: {"addi", "dsi", ClassALU},
	ANDI: {"andi", "dsi", ClassALU},
	ORI:  {"ori", "dsi", ClassALU},
	XORI: {"xori", "dsi", ClassALU},
	SLLI: {"slli", "dsi", ClassALU},
	SRLI: {"srli", "dsi", ClassALU},
	SRAI: {"srai", "dsi", ClassALU},
	SLTI: {"slti", "dsi", ClassALU},
	LUI:  {"lui", "di", ClassALU},

	FFS:   {"ffs", "ds", ClassSpecial},
	EXT:   {"ext", "dsiw", ClassSpecial},
	INS:   {"ins", "dsiw", ClassSpecial},
	ORFI:  {"orfi", "dsiw", ClassSpecial},
	ANDFI: {"andfi", "dsiw", ClassSpecial},

	LD: {"ld", "dm", ClassMem},
	ST: {"st", "dm", ClassMem},

	BEQ:  {"beq", "stL", ClassBranch},
	BNE:  {"bne", "stL", ClassBranch},
	BLEZ: {"blez", "sL", ClassBranch},
	BGTZ: {"bgtz", "sL", ClassBranch},
	BBS:  {"bbs", "sbL", ClassBranchBit},
	BBC:  {"bbc", "sbL", ClassBranchBit},
	J:    {"j", "L", ClassBranch},
	JAL:  {"jal", "L", ClassBranch},
	JR:   {"jr", "s", ClassBranch},

	MFH:    {"mfh", "dh", ClassMagic},
	MTH:    {"mth", "hs", ClassMagic},
	SEND:   {"send", "i", ClassMagic},
	MEMRD:  {"memrd", "s", ClassMagic},
	MEMWR:  {"memwr", "s", ClassMagic},
	WAITPC: {"waitpc", "", ClassMagic},
	DONE:   {"done", "", ClassMagic},
}

// info returns op's table row; an out-of-range op has no operands.
func (o Op) info() opInfo {
	if o < NumOps {
		return opTable[o]
	}
	return opInfo{}
}

func (o Op) String() string {
	if o < NumOps {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Header field indices for MFH/MTH. The inbox preprocesses incoming headers
// (Section 2 of the paper), so handlers also see the precomputed directory
// offset of the message address and the node's own identifier. For outgoing
// messages the HdrSrc slot addresses the destination.
const (
	HdrType   = iota // message type
	HdrAddr          // line address
	HdrSrc           // incoming: source node; outgoing: destination node
	HdrReq           // original requester
	HdrAux           // type-specific auxiliary field
	HdrPCKind        // MFH only: processor-cache response kind after WAITPC
	HdrDirOff        // MFH only: protocol-memory byte offset of the directory header
	HdrSelf          // MFH only: this node's identifier
	NumHdrFields
)

// SEND immediate encoding.
const (
	SendNet   = 0 // to the network interface
	SendPI    = 1 // to the processor interface
	SendData  = 2 // flag: message carries the handler's data buffer
	SendIface = 1 // mask selecting the interface bit
)

// Instr is one PP instruction. Field use varies by opcode:
//
//	ALU reg-reg:  Rd, Rs, Rt
//	ALU reg-imm:  Rd, Rs, Imm
//	field ops:    Rd, Rs, Imm (pos), Imm2 (width)
//	LD/ST:        Rd (data), Rs (base), Imm (offset)
//	branches:     Rs, Rt/Imm(bit), Target
//	MFH/MTH:      Rd/Rs and Imm (field index)
//	SEND:         Imm (interface | data flag)
type Instr struct {
	Op     Op
	Rd     uint8
	Rs     uint8
	Rt     uint8
	Imm    int64
	Imm2   int64
	Target int    // resolved instruction index for branch/jump targets
	Sym    string // unresolved target label (assembler only)
}

// Class is the broad instruction category used by the Table 5.2 statistics.
type Class uint8

const (
	ClassALU Class = iota
	ClassSpecial
	ClassMem
	ClassBranch
	ClassBranchBit // branch-on-bit: counts as both branch and special
	ClassMagic
	ClassNop
)

// Classify returns the statistics class of op.
func Classify(op Op) Class { return op.info().class }

// StatDeltas returns the dynamic-statistics increments (Table 5.2) that one
// executed instance of op contributes: the non-NOP instruction count, the
// ALU-or-branch count, and the special-instruction count. It is the static
// form of the per-instruction counting the emulator's reference interpreter
// performs, so a predecoding backend can fold the increments of a whole
// instruction pair into constants at program-load time.
func StatDeltas(op Op) (instrs, aluBranch, special uint64) {
	switch Classify(op) {
	case ClassNop:
		return 0, 0, 0
	case ClassALU, ClassBranch:
		return 1, 1, 0
	case ClassSpecial, ClassBranchBit:
		return 1, 1, 1
	default: // ClassMem, ClassMagic
		return 1, 0, 0
	}
}

// RAWHazard reports whether b reads the register a writes. Dual-issue pair
// semantics evaluate both slots against pre-pair register state; executing
// the slots sequentially (a then b) is equivalent exactly when no such
// read-after-write exists — WAR and WAW resolve identically either way,
// since writes commit in slot order. The scheduler never emits RAW pairs
// (regHazard rejects them), so this is a load-time validity check for
// predecoded backends, not a run-time concern.
func RAWHazard(a, b *Instr) bool {
	def := a.Def()
	return def >= 0 && b.reads(def)
}

// IsControl reports whether op transfers control: a branch, a jump, or
// DONE, which returns to the inbox.
func IsControl(op Op) bool {
	c := Classify(op)
	return c == ClassBranch || c == ClassBranchBit || op == DONE
}

// HasTarget reports whether op carries a resolved label in Target.
func HasTarget(op Op) bool { return strings.IndexByte(op.info().args, 'L') >= 0 }

// Register fields, as a bit set.
const (
	fieldRd = 1 << iota
	fieldRs
	fieldRt
)

// regs returns the register fields op reads and writes. The table's d is a
// write and s, t and m are reads, with three exceptions: ST reads the value
// it stores from Rd, INS merges into Rd, and JAL writes the link register
// r28, which the assembler places in Rd.
func (o Op) regs() (read, write uint8) {
	for _, c := range o.info().args {
		switch c {
		case 'd':
			write |= fieldRd
		case 's', 'm':
			read |= fieldRs
		case 't':
			read |= fieldRt
		}
	}
	switch o {
	case ST:
		read, write = read|fieldRd, 0
	case INS:
		read |= fieldRd
	case JAL:
		write = fieldRd
	}
	return read, write
}

// Def returns the register in writes, or -1.
func (in *Instr) Def() int {
	if _, w := in.Op.regs(); w != 0 && in.Rd != 0 {
		return int(in.Rd)
	}
	return -1
}

// Uses appends the registers in reads to dst and returns it.
func (in *Instr) Uses(dst []int) []int {
	read, _ := in.Op.regs()
	for _, f := range [...]struct {
		bit uint8
		r   uint8
	}{{fieldRs, in.Rs}, {fieldRt, in.Rt}, {fieldRd, in.Rd}} {
		if read&f.bit != 0 && f.r != 0 {
			dst = append(dst, int(f.r))
		}
	}
	return dst
}

// reads reports whether in reads register r (r0 is never read), without
// building the Uses list.
func (in *Instr) reads(r int) bool {
	read, _ := in.Op.regs()
	return r > 0 && (read&fieldRs != 0 && int(in.Rs) == r ||
		read&fieldRt != 0 && int(in.Rt) == r ||
		read&fieldRd != 0 && int(in.Rd) == r)
}

// String prints in in assembler syntax, with a resolved target as @index.
func (in *Instr) String() string {
	s := in.Op.String()
	for k, c := range in.Op.info().args {
		if k == 0 {
			s += " "
		} else {
			s += ", "
		}
		switch c {
		case 'd':
			s += fmt.Sprintf("r%d", in.Rd)
		case 's':
			s += fmt.Sprintf("r%d", in.Rs)
		case 't':
			s += fmt.Sprintf("r%d", in.Rt)
		case 'i', 'b', 'h':
			s += fmt.Sprint(in.Imm)
		case 'w':
			s += fmt.Sprint(in.Imm2)
		case 'm':
			s += fmt.Sprintf("%d(r%d)", in.Imm, in.Rs)
		case 'L':
			s += fmt.Sprintf("@%d", in.Target)
		}
	}
	return s
}
