package ppisa

import "sort"

// Mode selects the scheduling target.
type Mode uint8

const (
	// DualIssue statically schedules instruction pairs for the real PP. All
	// pairs must be free of intra-pair dependences, since the PP has no
	// resource conflict detection (Section 2 of the paper).
	DualIssue Mode = iota
	// SingleIssue emits one instruction per cycle (Section 5.3 ablation).
	SingleIssue
)

// Pair is one dual-issue instruction pair. Both slots read register state
// from before the pair; writes commit after the pair.
type Pair struct {
	A, B Instr
}

// SideEffect reports whether op produces a post-commit action in the
// emulator (control transfer, message send, or intervention wait). The
// scheduler admits at most one such instruction per pair, which is what
// lets the compiled backend assume a unique pair action (compile.go falls
// back to the reference interpreter for hand-built pairs that violate it).
func SideEffect(op Op) bool {
	return IsControl(op) || op == SEND || op == WAITPC
}

// Program is a scheduled handler image ready for execution by ppsim.
type Program struct {
	Pairs   []Pair
	Entries map[string]int // handler name -> pair index
	Mode    Mode

	// SrcInstrs is the number of non-NOP source instructions before
	// scheduling (the numerator of dynamic dual-issue efficiency is counted
	// at run time; this is the static analogue).
	SrcInstrs int
}

// CodeBytes returns the static code size in bytes, counting both slots of
// every pair at 4 bytes per instruction slot (Table 5.2's "static code size
// of fully-scheduled handlers (with NOPs)").
func (p *Program) CodeBytes() int {
	if p.Mode == SingleIssue {
		return len(p.Pairs) * 4
	}
	return len(p.Pairs) * 8
}

// StaticNonNops counts non-NOP slots in the scheduled image.
func (p *Program) StaticNonNops() int {
	n := 0
	for _, pr := range p.Pairs {
		if pr.A.Op != NOP {
			n++
		}
		if pr.B.Op != NOP {
			n++
		}
	}
	return n
}

// Schedule turns an assembled source into an executable program. For
// DualIssue it performs list scheduling within basic blocks: instructions
// may be reordered subject to register, memory, and MAGIC-interface
// dependences, and paired when no intra-pair hazard exists.
func Schedule(src *Source, mode Mode) *Program {
	p := &Program{Mode: mode, Entries: make(map[string]int)}
	for _, in := range src.Instrs {
		if in.Op != NOP {
			p.SrcInstrs++
		}
	}

	// Basic block leaders: entry 0, label targets, and instructions after
	// control transfers.
	n := len(src.Instrs)
	leader := make([]bool, n+1)
	leader[0] = true
	for _, idx := range src.Labels {
		if idx <= n {
			leader[idx] = true
		}
	}
	for i, in := range src.Instrs {
		if IsControl(in.Op) && i+1 <= n {
			leader[i+1] = true
		}
		if HasTarget(in.Op) {
			leader[in.Target] = true
		}
	}

	// Schedule each block; record the pair index of every source index that
	// is a leader so branch targets can be remapped.
	leaderPair := make(map[int]int)
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		leaderPair[start] = len(p.Pairs)
		block := src.Instrs[start:end]
		if mode == SingleIssue {
			for _, in := range block {
				if in.Op == NOP {
					continue
				}
				p.Pairs = append(p.Pairs, Pair{A: in, B: Instr{Op: NOP}})
			}
			if len(block) > 0 && allNops(block) {
				// Preserve an empty block as a single NOP so labels resolve.
				p.Pairs = append(p.Pairs, Pair{A: Instr{Op: NOP}, B: Instr{Op: NOP}})
			}
		} else {
			p.Pairs = append(p.Pairs, scheduleBlock(block)...)
		}
		start = end
	}
	leaderPair[n] = len(p.Pairs)

	// Remap branch targets from source indices to pair indices.
	for i := range p.Pairs {
		remap(&p.Pairs[i].A, leaderPair)
		remap(&p.Pairs[i].B, leaderPair)
	}
	for name, idx := range src.Labels {
		pi, ok := leaderPair[idx]
		if !ok {
			pi = len(p.Pairs)
		}
		p.Entries[name] = pi
	}
	return p
}

func allNops(block []Instr) bool {
	for _, in := range block {
		if in.Op != NOP {
			return false
		}
	}
	return true
}

func remap(in *Instr, leaderPair map[int]int) {
	if !HasTarget(in.Op) {
		return
	}
	pi, ok := leaderPair[in.Target]
	if !ok {
		panic("ppisa: branch target is not a block leader")
	}
	in.Target = pi
}

// scheduleBlock list-schedules one basic block into pairs. A trailing
// control transfer is held aside and re-attached to the final pair when no
// hazard prevents it (the branch still takes effect after the pair, so this
// preserves semantics while letting branches dual-issue).
func scheduleBlock(block []Instr) []Pair {
	ins := make([]Instr, 0, len(block))
	for _, in := range block {
		if in.Op != NOP {
			ins = append(ins, in)
		}
	}
	if len(ins) == 0 {
		if len(block) == 0 {
			return nil
		}
		return []Pair{{A: Instr{Op: NOP}, B: Instr{Op: NOP}}}
	}
	var ctl *Instr
	if IsControl(ins[len(ins)-1].Op) {
		c := ins[len(ins)-1]
		ctl = &c
		ins = ins[:len(ins)-1]
	}
	pairs := scheduleStraight(ins)
	if ctl != nil {
		if k := len(pairs) - 1; k >= 0 && pairs[k].B.Op == NOP &&
			pairable(&pairs[k].A, ctl) {
			pairs[k].B = *ctl
		} else {
			pairs = append(pairs, Pair{A: Instr{Op: NOP}, B: *ctl})
		}
	}
	return pairs
}

// scheduleStraight schedules a straight-line (control-free) sequence.
func scheduleStraight(ins []Instr) []Pair {
	if len(ins) == 0 {
		return nil
	}

	// Dependence edges (i -> j means j must follow i).
	m := len(ins)
	succ := make([][]int, m)
	npred := make([]int, m)
	addEdge := func(i, j int) {
		succ[i] = append(succ[i], j)
		npred[j]++
	}
	for j := 1; j < m; j++ {
		cj := Classify(ins[j].Op)
		for i := j - 1; i >= 0; i-- {
			ci := Classify(ins[i].Op)
			dep := regHazard(&ins[i], &ins[j])
			// Conservative memory and MAGIC-interface ordering.
			if ci == ClassMem && cj == ClassMem &&
				(ins[i].Op == ST || ins[j].Op == ST) {
				dep = true
			}
			if ci == ClassMagic && cj == ClassMagic {
				dep = true
			}
			if dep {
				addEdge(i, j)
			}
		}
	}

	// Priority: critical-path height.
	height := make([]int, m)
	for i := m - 1; i >= 0; i-- {
		h := 0
		for _, s := range succ[i] {
			if height[s]+1 > h {
				h = height[s] + 1
			}
		}
		height[i] = h
	}

	ready := []int{}
	for i := 0; i < m; i++ {
		if npred[i] == 0 {
			ready = append(ready, i)
		}
	}
	pickBest := func(exclude int, filter func(int) bool) int {
		best := -1
		for _, c := range ready {
			if c == exclude || !filter(c) {
				continue
			}
			if best < 0 || height[c] > height[best] ||
				(height[c] == height[best] && c < best) {
				best = c
			}
		}
		return best
	}
	remove := func(x int) {
		for k, c := range ready {
			if c == x {
				ready = append(ready[:k], ready[k+1:]...)
				return
			}
		}
	}
	finish := func(x int) {
		for _, s := range succ[x] {
			npred[s]--
			if npred[s] == 0 {
				ready = append(ready, s)
			}
		}
		sort.Ints(ready) // determinism
	}

	var pairs []Pair
	scheduled := 0
	for scheduled < m {
		a := pickBest(-1, func(int) bool { return true })
		remove(a)
		// Try to fill slot B with an independent, structurally compatible
		// instruction. Candidates must already be ready (so they do not
		// depend on a), must not violate pairing rules with a, and — because
		// both slots read pre-pair state — must not be anti- or
		// output-dependent on a either.
		b := pickBest(a, func(c int) bool { return pairable(&ins[a], &ins[c]) })
		pa := ins[a]
		pb := Instr{Op: NOP}
		if b >= 0 {
			remove(b)
			pb = ins[b]
		}
		pairs = append(pairs, Pair{A: pa, B: pb})
		finish(a)
		if b >= 0 {
			finish(b)
			scheduled++
		}
		scheduled++
	}
	return pairs
}

// pairable reports whether b may issue in the same pair as a (a precedes b
// in the chosen order; both ready, so no RAW from a to b exists only if b
// doesn't read a's def — checked here because readiness was computed before
// a finished).
func pairable(a, b *Instr) bool {
	ca, cb := Classify(a.Op), Classify(b.Op)
	// Structural: one memory port, one MAGIC port, one control transfer.
	if ca == ClassMem && cb == ClassMem {
		return false
	}
	if ca == ClassMagic && cb == ClassMagic {
		return false
	}
	// At most one action-producing instruction (control transfer, SEND, or
	// WAITPC) per pair, so the emulator's post-commit action is unique.
	if SideEffect(a.Op) && SideEffect(b.Op) {
		return false
	}
	return !regHazard(a, b)
}

// regHazard reports whether b, which follows a, must stay ordered after a
// because of a register: b reads a's def (RAW), writes it too (WAW), or
// writes a register a reads (WAR). The scheduler orders such pairs and never
// issues them together: a WAR pair would be harmless under read-old-state
// semantics, but the paper's PP has no conflict detection at all, so
// PPtwine scheduled around every hazard, and so do we.
func regHazard(a, b *Instr) bool {
	defA, defB := a.Def(), b.Def()
	return defA >= 0 && (b.reads(defA) || defA == defB) ||
		defB >= 0 && a.reads(defB)
}
