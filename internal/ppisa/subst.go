package ppisa

// SubstituteDLX rewrites a source program so that it uses no FLASH special
// instructions, replacing each with the DLX substitution sequences of
// Table 5.3. Registers r29-r31 (reserved by the assembler) are used as
// scratch. Branch targets are remapped across the expansion.
//
// The resulting source is normally scheduled SingleIssue to model the
// "non-optimized PP" of Section 5.3.
func SubstituteDLX(src *Source) *Source {
	out := &Source{Labels: make(map[string]int)}
	// indexMap[i] = new index of old instruction i.
	indexMap := make([]int, len(src.Instrs)+1)

	for i, in := range src.Instrs {
		indexMap[i] = len(out.Instrs)
		out.Instrs = append(out.Instrs, expandDLX(in, out)...)
	}
	indexMap[len(src.Instrs)] = len(out.Instrs)

	// Remap branch targets from old index space to new. Branches emitted by
	// the expander that jump within their own expansion carry the synthMark
	// tag and already hold new-space targets.
	for k := range out.Instrs {
		in := &out.Instrs[k]
		if !HasTarget(in.Op) {
			continue
		}
		if in.Imm2 == synthMark {
			in.Imm2 = 0
		} else {
			in.Target = indexMap[in.Target]
		}
	}
	for name, idx := range src.Labels {
		out.Labels[name] = indexMap[idx]
	}
	return out
}

// synthMark flags expander-generated branches whose Target is already in
// new-index space (they only ever branch within their own expansion, to a
// known relative position).
const synthMark = -0x5EED

const (
	at1 = 29
	at2 = 30
	at3 = 31
)

// expandDLX returns the replacement sequence for one instruction. For
// branches that target old-index space the Target is left for the caller to
// remap; intra-expansion branches are resolved here and tagged.
func expandDLX(in Instr, out *Source) []Instr {
	base := len(out.Instrs)
	switch in.Op {
	case FFS:
		// Code-size-optimized loop (paper: 6 instructions, 2 + 4 cycles per
		// bit checked). rd = bit index of the lowest set bit of rs.
		//   mv   at1, rs
		//   addi rd, r0, -1
		// L:addi rd, rd, 1
		//   andi at2, at1, 1
		//   srli at1, at1, 1
		//   beq  at2, r0, L
		loop := base + 2
		return []Instr{
			{Op: ADD, Rd: at1, Rs: in.Rs},
			{Op: ADDI, Rd: in.Rd, Imm: -1},
			{Op: ADDI, Rd: in.Rd, Rs: in.Rd, Imm: 1},
			{Op: ANDI, Rd: at2, Rs: at1, Imm: 1},
			{Op: SRLI, Rd: at1, Rs: at1, Imm: 1},
			{Op: BEQ, Rs: at2, Target: loop, Imm2: synthMark},
		}

	case BBS, BBC:
		// 2 instructions for low bits reachable by a 16-bit mask, 4 when a
		// lui/ori mask build is needed (paper: "2 or 4 instructions").
		br := BNE
		if in.Op == BBC {
			br = BEQ
		}
		if in.Imm < 16 {
			return []Instr{
				{Op: ANDI, Rd: at1, Rs: in.Rs, Imm: 1 << uint(in.Imm)},
				{Op: br, Rs: at1, Target: in.Target, Sym: in.Sym},
			}
		}
		return []Instr{
			{Op: SRLI, Rd: at1, Rs: in.Rs, Imm: in.Imm},
			{Op: ANDI, Rd: at1, Rs: at1, Imm: 1},
			{Op: br, Rs: at1, Target: in.Target, Sym: in.Sym},
		}

	case EXT:
		// srl + mask. 1 instruction when the shift alone suffices, up to 4
		// when the mask needs lui/ori.
		pos, w := uint(in.Imm), uint(in.Imm2)
		if pos+w == 64 {
			return []Instr{{Op: SRLI, Rd: in.Rd, Rs: in.Rs, Imm: int64(pos)}}
		}
		mask := int64(1)<<w - 1
		seq := []Instr{}
		srcReg := in.Rs
		if pos > 0 {
			seq = append(seq, Instr{Op: SRLI, Rd: in.Rd, Rs: in.Rs, Imm: int64(pos)})
			srcReg = in.Rd
		}
		if mask >= 0 && mask < 1<<16 {
			seq = append(seq, Instr{Op: ANDI, Rd: in.Rd, Rs: srcReg, Imm: mask})
		} else {
			seq = append(seq, LoadImm(at1, mask)...)
			seq = append(seq, Instr{Op: AND, Rd: in.Rd, Rs: srcReg, Rt: at1})
		}
		return seq

	case ORFI:
		// OR with a string of consecutive ones (1-5 instructions).
		pos, w := uint(in.Imm), uint(in.Imm2)
		mask := (int64(1)<<w - 1) << pos
		if mask >= 0 && mask < 1<<16 {
			return []Instr{{Op: ORI, Rd: in.Rd, Rs: in.Rs, Imm: mask}}
		}
		seq := LoadImm(at1, mask)
		return append(seq, Instr{Op: OR, Rd: in.Rd, Rs: in.Rs, Rt: at1})

	case ANDFI:
		// AND with a string of consecutive zeros: materialize the ones-mask,
		// invert, and.
		pos, w := uint(in.Imm), uint(in.Imm2)
		mask := (int64(1)<<w - 1) << pos
		seq := LoadImm(at1, mask)
		seq = append(seq,
			Instr{Op: XORI, Rd: at1, Rs: at1, Imm: -1},
			Instr{Op: AND, Rd: in.Rd, Rs: in.Rs, Rt: at1})
		return seq

	case INS:
		// Equivalent to two field immediates followed by an or (Table 5.3):
		// clear the field in rd, position the source bits, combine.
		pos, w := uint(in.Imm), uint(in.Imm2)
		mask := (int64(1)<<w - 1) << pos
		seq := LoadImm(at1, mask)
		seq = append(seq,
			Instr{Op: XORI, Rd: at2, Rs: at1, Imm: -1},
			Instr{Op: AND, Rd: in.Rd, Rs: in.Rd, Rt: at2})
		// at3 = (rs & ones(w)) << pos
		lowMask := int64(1)<<w - 1
		if lowMask >= 0 && lowMask < 1<<16 {
			seq = append(seq, Instr{Op: ANDI, Rd: at3, Rs: in.Rs, Imm: lowMask})
		} else {
			seq = append(seq, Instr{Op: SLLI, Rd: at3, Rs: in.Rs, Imm: int64(64 - w)},
				Instr{Op: SRLI, Rd: at3, Rs: at3, Imm: int64(64 - w)})
		}
		if pos > 0 {
			seq = append(seq, Instr{Op: SLLI, Rd: at3, Rs: at3, Imm: int64(pos)})
		}
		seq = append(seq, Instr{Op: OR, Rd: in.Rd, Rs: in.Rd, Rt: at3})
		return seq
	}
	return []Instr{in}
}
