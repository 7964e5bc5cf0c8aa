package ppsim

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
)

// This file implements the PP's one run loop and the images it executes. At
// program load every instruction pair is translated into a predecoded µop
// record — register indices resolved, immediates widened and pre-masked,
// branch targets and JAL link values pre-bound, per-pair statistics deltas
// folded to constants — executed by per-opcode closures, so decode is paid
// once per program. A fallback pair instead runs through the reference eval
// switch (pp.go), re-decoded on every execution; the interpreter image is
// all fallback pairs, so both images share everything but slot evaluation.
//
// Equivalence argument: pair semantics evaluate both slots against pre-pair
// register state and commit writes afterwards. The scheduler guarantees no
// intra-pair register hazards at all (sched.go pairable), and sequential
// slot execution diverges from snapshot semantics only on a read-after-
// write from slot A to slot B — WAR reads happen before B writes, and a WAW
// conflict commits B's value under either order. compile therefore executes
// slots sequentially with direct register writes, and falls back to the
// reference eval for any (hand-built) pair where ppisa.RAWHazard holds, so
// the two images are bit-identical on every input program, not just
// scheduler output.

// Backend selects the image the PP's run loop executes.
type Backend uint8

const (
	// BackendCompiled executes the predecoded closure image (the default).
	BackendCompiled Backend = iota
	// BackendInterp executes the reference image: every pair a fallback
	// pair, evaluated through the eval switch.
	BackendInterp
)

func (b Backend) String() string {
	if b == BackendInterp {
		return "interp"
	}
	return "compiled"
}

// BackendFor maps an arch.Config dispatch selection to a backend.
func BackendFor(d arch.PPDispatch) Backend {
	if d == arch.PPDispatchInterp {
		return BackendInterp
	}
	return BackendCompiled
}

// slotFn executes one predecoded slot against live PP state and returns the
// pair's post-commit action (actNone for pure data instructions; branches
// redirect p.nextPC themselves and return actNone).
type slotFn func(p *PP) action

// cpair is one predecoded instruction pair.
type cpair struct {
	a, b slotFn // nil: NOP or no-effect slot (statistics still counted)

	// Static Table 5.2 statistics for the pair, folded at compile time.
	instrs, aluBr, special uint64

	// fallback routes a pair through the reference eval (evalPair): every
	// pair of the interpreter image, and in the compiled image a pair the
	// closures cannot express exactly — an intra-pair RAW hazard, or two
	// action-producing slots (slot A's action suppresses slot B's). Both
	// are impossible in scheduler output (pairable rejects them); the
	// fallback exists so hand-built programs stay bit-identical too. Such
	// pairs carry zero static statistics: eval counts them itself.
	fallback *ppisa.Pair
}

// compileCache shares images between PPs built from the same Program and
// backend: protocol.Build hands every machine with the same protocol, PP
// mode and memory layout one shared Program, so a whole sweep compiles each
// protocol once. Keyed by Program identity — the map entry keeps its key
// alive, so a cached image can never alias a recycled pointer. Bounded for
// callers that assemble programs of their own (tests, ppasm), whose images
// must not accumulate.
var compileCache = struct {
	sync.Mutex
	m map[imageKey][]cpair
}{m: map[imageKey][]cpair{}}

type imageKey struct {
	prog *ppisa.Program
	b    Backend
}

// Compile-cache traffic counters, process-wide like the cache itself;
// exported to the metrics registry via CompileCacheStats.
var cacheHits, cacheMisses, cacheEvictions atomic.Uint64

// CompileCacheStats reports cumulative compile-cache traffic: images
// reused, images compiled, and entries dropped by the size bound.
func CompileCacheStats() (hits, misses, evictions uint64) {
	return cacheHits.Load(), cacheMisses.Load(), cacheEvictions.Load()
}

// image returns the (shared, immutable at run time) image of prog for
// backend b, compiling on first sight.
func image(prog *ppisa.Program, b Backend) []cpair {
	cc := &compileCache
	k := imageKey{prog, b}
	cc.Lock()
	code, ok := cc.m[k]
	if !ok {
		cacheMisses.Add(1)
		code = compile(prog, b == BackendInterp)
		if len(cc.m) >= 64 {
			cacheEvictions.Add(uint64(len(cc.m)))
			clear(cc.m)
		}
		cc.m[k] = code
	} else {
		cacheHits.Add(1)
	}
	cc.Unlock()
	return code
}

// compile predecodes a scheduled program into its image; interp makes
// every pair a fallback pair.
func compile(prog *ppisa.Program, interp bool) []cpair {
	code := make([]cpair, len(prog.Pairs))
	for i := range prog.Pairs {
		pr := &prog.Pairs[i]
		c := &code[i]
		if interp || ppisa.RAWHazard(&pr.A, &pr.B) ||
			(ppisa.SideEffect(pr.A.Op) && ppisa.SideEffect(pr.B.Op)) {
			c.fallback = pr
			continue
		}
		c.a = compileSlot(&pr.A, i)
		c.b = compileSlot(&pr.B, i)
		for _, in := range [2]*ppisa.Instr{&pr.A, &pr.B} {
			di, da, ds := ppisa.StatDeltas(in.Op)
			c.instrs += di
			c.aluBr += da
			c.special += ds
		}
	}
	return code
}

// run is the PP's one run loop: it executes pairs until the handler blocks
// or completes. A closure pair runs its slots in place; a fallback pair
// runs through evalPair. No per-pair opcode switch, no entry-name lookups,
// no per-instruction classification outside the fallback.
func (p *PP) run() (Status, uint64) {
	p.segCycles = 0
	code := p.code
	for {
		if p.stepBudget <= 0 {
			panic("ppsim: handler exceeded pair budget (protocol livelock?)")
		}
		p.stepBudget--
		c := &code[p.pc]
		p.segCycles++
		p.Stats.Pairs++
		p.Stats.Instrs += c.instrs
		p.Stats.ALUOrBranch += c.aluBr
		p.Stats.Special += c.special

		p.nextPC = p.pc + 1
		var act action
		if c.fallback != nil {
			act = p.evalPair(c.fallback)
		} else {
			if c.a != nil {
				act = c.a(p)
			}
			if c.b != nil {
				if ab := c.b(p); act == actNone {
					act = ab
				}
			}
		}
		switch act {
		case actSend:
			if !p.Env.TrySend(p.outHdr, p.segCycles) {
				p.pendingSend = p.outHdr
				p.hasPending = true
				// Re-execution resumes at the *next* pair: the send itself
				// completes when Resume retries it.
				p.pc = p.nextPC
				return StatusBlockedSend, p.segCycles
			}
		case actWaitPC:
			p.pc = p.nextPC
			return StatusWaitPC, p.segCycles
		case actDone:
			p.running = false
			return StatusDone, p.segCycles
		}
		p.pc = p.nextPC
	}
}

// compileSlot predecodes one slot into its closure. It returns nil for NOP
// and for instructions with no architectural effect (writes to r0 with no
// side effects), which the loop skips outright.
func compileSlot(in *ppisa.Instr, idx int) slotFn {
	rd, rs, rt := int(in.Rd), int(in.Rs), int(in.Rt)
	imm := uint64(in.Imm) // sign-extends; addition wraps identically

	// aluFn wraps a pure rd <- f(regs) computation, honouring the r0 sink.
	aluFn := func(f func(p *PP) uint64) slotFn {
		if rd == 0 {
			return nil
		}
		return func(p *PP) action {
			p.regs[rd] = f(p)
			return actNone
		}
	}

	switch in.Op {
	case ppisa.NOP:
		return nil

	case ppisa.ADD:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] + p.regs[rt] })
	case ppisa.SUB:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] - p.regs[rt] })
	case ppisa.AND:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] & p.regs[rt] })
	case ppisa.OR:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] | p.regs[rt] })
	case ppisa.XOR:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] ^ p.regs[rt] })
	case ppisa.SLL:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] << (p.regs[rt] & 63) })
	case ppisa.SRL:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] >> (p.regs[rt] & 63) })
	case ppisa.SRA:
		return aluFn(func(p *PP) uint64 { return uint64(int64(p.regs[rs]) >> (p.regs[rt] & 63)) })
	case ppisa.SLT:
		return aluFn(func(p *PP) uint64 { return b2u(int64(p.regs[rs]) < int64(p.regs[rt])) })
	case ppisa.SLTU:
		return aluFn(func(p *PP) uint64 { return b2u(p.regs[rs] < p.regs[rt]) })

	case ppisa.ADDI:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] + imm })
	case ppisa.ANDI:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] & imm })
	case ppisa.ORI:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] | imm })
	case ppisa.XORI:
		return aluFn(func(p *PP) uint64 { return p.regs[rs] ^ imm })
	case ppisa.SLLI:
		sh := uint(in.Imm & 63)
		return aluFn(func(p *PP) uint64 { return p.regs[rs] << sh })
	case ppisa.SRLI:
		sh := uint(in.Imm & 63)
		return aluFn(func(p *PP) uint64 { return p.regs[rs] >> sh })
	case ppisa.SRAI:
		sh := uint(in.Imm & 63)
		return aluFn(func(p *PP) uint64 { return uint64(int64(p.regs[rs]) >> sh) })
	case ppisa.SLTI:
		cmp := in.Imm
		return aluFn(func(p *PP) uint64 { return b2u(int64(p.regs[rs]) < cmp) })
	case ppisa.LUI:
		v := uint64(in.Imm&0xFFFF) << 16
		return aluFn(func(p *PP) uint64 { return v })

	case ppisa.FFS:
		return aluFn(func(p *PP) uint64 {
			v := p.regs[rs]
			if v == 0 {
				return 64
			}
			return uint64(bits.TrailingZeros64(v))
		})
	case ppisa.EXT:
		sh, mk := uint(in.Imm), mask(in.Imm2)
		return aluFn(func(p *PP) uint64 { return (p.regs[rs] >> sh) & mk })
	case ppisa.INS:
		sh := uint(in.Imm)
		m := mask(in.Imm2) << sh
		return aluFn(func(p *PP) uint64 { return (p.regs[rd] &^ m) | ((p.regs[rs] << sh) & m) })
	case ppisa.ORFI:
		m := mask(in.Imm2) << uint(in.Imm)
		return aluFn(func(p *PP) uint64 { return p.regs[rs] | m })
	case ppisa.ANDFI:
		m := mask(in.Imm2) << uint(in.Imm)
		return aluFn(func(p *PP) uint64 { return p.regs[rs] &^ m })

	case ppisa.LD:
		// Even an r0-destined load accesses the MDC and bounds-checks,
		// matching the interpreter.
		return func(p *PP) action {
			addr := p.regs[rs] + imm
			p.mdcAccess(addr, false)
			v := p.load(addr)
			if rd != 0 {
				p.regs[rd] = v
			}
			return actNone
		}
	case ppisa.ST:
		return func(p *PP) action {
			addr := p.regs[rs] + imm
			p.mdcAccess(addr, true)
			p.store(addr, p.regs[rd])
			return actNone
		}

	case ppisa.BEQ:
		tgt := in.Target
		return func(p *PP) action {
			if p.regs[rs] == p.regs[rt] {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.BNE:
		tgt := in.Target
		return func(p *PP) action {
			if p.regs[rs] != p.regs[rt] {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.BLEZ:
		tgt := in.Target
		return func(p *PP) action {
			if int64(p.regs[rs]) <= 0 {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.BGTZ:
		tgt := in.Target
		return func(p *PP) action {
			if int64(p.regs[rs]) > 0 {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.BBS:
		tgt, bit := in.Target, uint(in.Imm)
		return func(p *PP) action {
			if p.regs[rs]>>bit&1 == 1 {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.BBC:
		tgt, bit := in.Target, uint(in.Imm)
		return func(p *PP) action {
			if p.regs[rs]>>bit&1 == 0 {
				p.nextPC = tgt
			}
			return actNone
		}
	case ppisa.J:
		tgt := in.Target
		return func(p *PP) action {
			p.nextPC = tgt
			return actNone
		}
	case ppisa.JAL:
		tgt := in.Target
		link := uint64(idx + 1) // the link value is the static pair index
		if rd == 0 {
			return func(p *PP) action {
				p.nextPC = tgt
				return actNone
			}
		}
		return func(p *PP) action {
			p.regs[rd] = link
			p.nextPC = tgt
			return actNone
		}
	case ppisa.JR:
		return func(p *PP) action {
			p.nextPC = int(p.regs[rs])
			return actNone
		}

	case ppisa.MFH:
		f := int(in.Imm)
		return aluFn(func(p *PP) uint64 { return p.inHdr[f] })
	case ppisa.MTH:
		switch in.Imm {
		case ppisa.HdrType:
			return func(p *PP) action { p.outHdr.Type = p.regs[rs]; return actNone }
		case ppisa.HdrAddr:
			return func(p *PP) action { p.outHdr.Addr = p.regs[rs]; return actNone }
		case ppisa.HdrSrc:
			// Symmetric: the "src" slot addresses the target.
			return func(p *PP) action { p.outHdr.Dst = p.regs[rs]; return actNone }
		case ppisa.HdrReq:
			return func(p *PP) action { p.outHdr.Req = p.regs[rs]; return actNone }
		case ppisa.HdrAux:
			return func(p *PP) action { p.outHdr.Aux = p.regs[rs]; return actNone }
		}
		return nil // MFH-only fields: writes are dropped, as in the interpreter
	case ppisa.SEND:
		iface := int(in.Imm) & ppisa.SendIface
		data := in.Imm&ppisa.SendData != 0
		return func(p *PP) action {
			p.outHdr.Iface = iface
			p.outHdr.Data = data
			return actSend
		}
	case ppisa.MEMRD:
		return func(p *PP) action {
			p.Env.MemRead(p.regs[rs], p.segCycles)
			return actNone
		}
	case ppisa.MEMWR:
		return func(p *PP) action {
			p.Env.MemWrite(p.regs[rs], p.segCycles)
			return actNone
		}
	case ppisa.WAITPC:
		return func(p *PP) action { return actWaitPC }
	case ppisa.DONE:
		return func(p *PP) action { return actDone }
	}
	// Unknown opcode: the interpreter counts it (Classify defaults to
	// ClassALU) and performs nothing; StatDeltas matches.
	return nil
}
