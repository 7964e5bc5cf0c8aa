package ppsim

import (
	"fmt"

	"flashsim/internal/memsys"
	"flashsim/internal/ppisa"
)

// Status reports why PP execution stopped.
type Status uint8

const (
	// StatusDone means the handler executed DONE.
	StatusDone Status = iota
	// StatusBlockedSend means a SEND found its outgoing queue full; MAGIC
	// must call Resume once space is available. The send is retried then.
	StatusBlockedSend
	// StatusWaitPC means the handler executed WAITPC and is stalled until
	// the processor-cache intervention response arrives; MAGIC must call
	// SetPCResponse then Resume.
	StatusWaitPC
)

// OutHeader is an outgoing message composed in the PP's header registers.
type OutHeader struct {
	Type uint64
	Addr uint64
	Dst  uint64
	Req  uint64
	Aux  uint64
	// Iface is ppisa.SendNet or ppisa.SendPI; Data reports whether the
	// message carries the handler's data buffer.
	Iface int
	Data  bool
}

// Env is the MAGIC environment a handler executes against. Methods are
// called synchronously during execution; dt is the number of PP cycles
// consumed so far in the current run segment, letting the environment
// timestamp the operation as segment-start + dt.
type Env interface {
	// TrySend attempts to enqueue an outgoing message. It returns false if
	// the destination queue is full, in which case the PP blocks.
	// Interventions (PIDowngr/PIFlush) also pass through here; the handler
	// follows them with WAITPC.
	TrySend(h OutHeader, dt uint64) bool
	// MemRead initiates a memory read of the line at addr into the
	// handler's data buffer (handler-initiated, i.e. non-speculative).
	MemRead(addr uint64, dt uint64)
	// MemWrite writes the handler's data buffer to the line at addr.
	MemWrite(addr uint64, dt uint64)
	// MDCFill services an MDC miss for protocol-memory address addr and
	// returns the stall penalty in cycles (≥ the 29-cycle base penalty;
	// more under memory-controller contention). writeback reports whether
	// a dirty MDC victim must also be written back.
	MDCFill(addr uint64, writeback bool, dt uint64) uint64
}

// Stats aggregates the dynamic execution statistics of Table 5.2.
type Stats struct {
	Pairs       uint64 // dual-issue pairs (or single instructions) executed
	Instrs      uint64 // non-NOP instructions executed
	ALUOrBranch uint64 // dynamic ALU + branch instruction count
	Special     uint64 // bitfield/branch-on-bit/ffs instructions
	StallCycles uint64 // MDC-miss and send-stall cycles inside handlers
}

// PP is one protocol processor instance. It executes at most one handler at
// a time; MAGIC serializes invocations.
type PP struct {
	Prog *ppisa.Program
	// Mem is the node's protocol memory, in 8-byte words: sparse, so a
	// machine pays only for the directory and pool pages its run writes.
	// The protocol layout installs the pristine image (InitMemory).
	Mem *memsys.Store
	MDC *MDC
	Env Env

	ppState

	// backend selects the image the run loop executes; code is that image
	// (see compile.go).
	backend Backend
	code    []cpair

	memWords uint64 // protocol memory size; loads and stores bound-check against it

	flight
}

// flight is the execution state of the in-flight handler, listed once:
// RestoreState resets it in one statement, idle tests it, DebugState prints
// every field.
type flight struct {
	pc      int
	nextPC  int // successor pair chosen by the run loop's current pair
	running bool

	outHdr OutHeader

	// pendingSend holds the header of a SEND that blocked.
	pendingSend OutHeader
	hasPending  bool
	jrTarget    int

	// stepBudget guards against runaway handlers.
	stepBudget int

	// segCycles counts PP cycles consumed in the current run segment
	// (between Start/Resume and the next block or DONE), including MDC
	// stall penalties. Env implementations read it to timestamp sends and
	// memory operations.
	segCycles uint64
}

// idle reports whether no handler is in flight: none running, no send
// waiting to be retried.
func (f *flight) idle() bool { return !f.running && !f.hasPending }

// ppState is the PP's between-handlers simulated state, listed once: the
// persistent register conventions, the incoming-header bank and the dynamic
// statistics. PP embeds it; PPState carries a copy.
type ppState struct {
	regs  [32]uint64
	inHdr [ppisa.NumHdrFields]uint64
	Stats Stats
}

// maxHandlerPairs bounds a single handler invocation; real handlers run tens
// of pairs, so hitting this always indicates a protocol bug.
const maxHandlerPairs = 100000

// New creates a PP executing prog with the given protocol memory size in
// bytes, on the compiled backend.
func New(prog *ppisa.Program, memBytes int, mdc *MDC, env Env) *PP {
	return NewBackend(prog, memBytes, mdc, env, BackendCompiled)
}

// NewBackend is New with an explicit backend: the program is predecoded
// into that backend's image — once per Program, shared by every PP built
// from it.
func NewBackend(prog *ppisa.Program, memBytes int, mdc *MDC, env Env, b Backend) *PP {
	return &PP{Prog: prog, Mem: memsys.NewStore(memBytes / 8), memWords: uint64(memBytes / 8), MDC: mdc, Env: env,
		backend: b, code: image(prog, b)}
}

// InHeader sets incoming-message header field f (visible to MFH).
func (p *PP) InHeader(f int, v uint64) { p.inHdr[f] = v }

// Reg returns the current value of register r (for tests and invariant
// checks against the protocol's persistent-register conventions).
func (p *PP) Reg(r int) uint64 { return p.regs[r] }

// SetPCResponse records the processor-cache intervention response kind,
// readable by the handler through MFH HdrPCKind after WAITPC.
func (p *PP) SetPCResponse(kind uint64) { p.inHdr[ppisa.HdrPCKind] = kind }

// EntryPC resolves a handler entry-point name to its pair index, for
// callers (MAGIC's jump table) that intern entries once at protocol load
// and dispatch by index afterwards. Unknown entries produce a descriptive
// error naming the program's size so a protocol/jump-table mismatch is
// diagnosable.
func (p *PP) EntryPC(entry string) (int, error) {
	pc, ok := p.Prog.Entries[entry]
	if !ok {
		return 0, fmt.Errorf("ppsim: no handler entry %q (program has %d entry points)", entry, len(p.Prog.Entries))
	}
	return pc, nil
}

// PPState is a captured idle PP: its ppState and its protocol memory
// (which holds the directory) as a frozen copy-on-write page table. The
// zero PPState is a PP with zeroed registers and pristine memory, before
// protocol-memory initialization and pp_init.
type PPState struct {
	ppState
	mem memsys.Frozen
}

// CaptureState snapshots an idle PP; a handler in flight or a pending send
// is an error. Protocol memory is captured copy-on-write
// (memsys.Store.SnapshotChunks): the PP clones a page on its first write
// afterwards, so the state stays immutable.
func (p *PP) CaptureState() (PPState, error) {
	if !p.idle() {
		return PPState{}, fmt.Errorf("ppsim: handler in flight: %s", p.DebugState())
	}
	return PPState{p.ppState, p.Mem.SnapshotChunks()}, nil
}

// RestoreState installs a state captured from a PP built from the same
// program and memory size, sharing its protocol-memory pages
// copy-on-write, and idles the PP: no handler in flight.
func (p *PP) RestoreState(st PPState) {
	p.ppState = st.ppState
	p.Mem.RestoreShared(st.mem)
	p.flight = flight{}
}

// DebugState renders every field of the in-flight handler's execution
// state, for hang diagnosis.
func (p *PP) DebugState() string {
	return fmt.Sprintf("pc=%d nextPC=%d running=%v outHdr=%+v pendingSend=%+v hasPending=%v jrTarget=%d stepBudget=%d segCycles=%d",
		p.pc, p.nextPC, p.running, p.outHdr, p.pendingSend, p.hasPending, p.jrTarget, p.stepBudget, p.segCycles)
}

// Start begins executing the handler named entry and runs until it blocks
// or completes. It returns the status and the number of PP cycles consumed
// (excluding stall time spent blocked on external events, which MAGIC
// accounts separately). Start is a convenience wrapper over EntryPC and
// StartAt that panics on an unknown entry; dispatch hot paths resolve the
// entry once and call StartAt.
func (p *PP) Start(entry string) (Status, uint64) {
	pc, err := p.EntryPC(entry)
	if err != nil {
		panic(err)
	}
	return p.StartAt(pc)
}

// StartAt is Start for a pre-resolved entry pair index (see EntryPC).
func (p *PP) StartAt(pc int) (Status, uint64) {
	p.pc = pc
	p.running = true
	p.hasPending = false
	p.stepBudget = maxHandlerPairs
	// The inbox initializes the outgoing header bank from the incoming
	// header: type and address carry over and the destination defaults to
	// the sender (reply semantics), so short forwarding handlers only touch
	// the fields they change.
	p.outHdr = OutHeader{
		Type: p.inHdr[ppisa.HdrType],
		Addr: p.inHdr[ppisa.HdrAddr],
		Dst:  p.inHdr[ppisa.HdrSrc],
		Req:  p.inHdr[ppisa.HdrReq],
		Aux:  p.inHdr[ppisa.HdrAux],
	}
	return p.run()
}

// Resume continues a blocked handler. For StatusBlockedSend the pending
// send is retried first.
func (p *PP) Resume() (Status, uint64) {
	if !p.running {
		panic("ppsim: Resume on idle PP")
	}
	if p.hasPending {
		if !p.Env.TrySend(p.pendingSend, 0) {
			return StatusBlockedSend, 0
		}
		p.hasPending = false
	}
	return p.run()
}

// action describes a side effect computed by eval that must take place
// after the pair commits.
type action uint8

const (
	actNone action = iota
	actBranch
	actBranchDyn // JR: target held in PP.jrTarget
	actSend
	actWaitPC
	actDone
)

type regWrite struct {
	reg int
	val uint64
}

func (w *regWrite) commit(regs *[32]uint64) {
	if w.reg > 0 {
		regs[w.reg] = w.val
	}
}

// evalPair executes one fallback pair through the reference eval: both
// slots read pre-pair register state, so they evaluate against the same
// snapshot and commit afterwards (the scheduler guarantees no intra-pair
// hazards, so live registers with deferred writes are equivalent). Slot A's
// action takes precedence over slot B's; a branch redirects p.nextPC and
// any other action returns to the run loop.
func (p *PP) evalPair(pair *ppisa.Pair) action {
	var wrA, wrB regWrite
	act, in := p.eval(&pair.A, &wrA), &pair.A
	if actB := p.eval(&pair.B, &wrB); act == actNone {
		act, in = actB, &pair.B
	}
	wrA.commit(&p.regs)
	wrB.commit(&p.regs)
	switch act {
	case actBranch:
		p.nextPC = in.Target
	case actBranchDyn:
		p.nextPC = p.jrTarget
	default:
		return act
	}
	return actNone
}

// eval computes one slot. Register writes are returned via wr; control and
// interface effects via the action. Memory (MDC) stalls add to the segment
// cycle count.
func (p *PP) eval(in *ppisa.Instr, wr *regWrite) action {
	wr.reg = -1
	R := func(r uint8) uint64 { return p.regs[r] }
	W := func(v uint64) {
		if in.Rd != 0 {
			wr.reg = int(in.Rd)
			wr.val = v
		}
	}
	countStat := func() {
		p.Stats.Instrs++
		switch ppisa.Classify(in.Op) {
		case ppisa.ClassALU, ppisa.ClassBranch:
			p.Stats.ALUOrBranch++
		case ppisa.ClassSpecial, ppisa.ClassBranchBit:
			p.Stats.ALUOrBranch++
			p.Stats.Special++
		}
	}

	switch in.Op {
	case ppisa.NOP:
		return actNone
	}
	countStat()

	switch in.Op {
	case ppisa.ADD:
		W(R(in.Rs) + R(in.Rt))
	case ppisa.SUB:
		W(R(in.Rs) - R(in.Rt))
	case ppisa.AND:
		W(R(in.Rs) & R(in.Rt))
	case ppisa.OR:
		W(R(in.Rs) | R(in.Rt))
	case ppisa.XOR:
		W(R(in.Rs) ^ R(in.Rt))
	case ppisa.SLL:
		W(R(in.Rs) << (R(in.Rt) & 63))
	case ppisa.SRL:
		W(R(in.Rs) >> (R(in.Rt) & 63))
	case ppisa.SRA:
		W(uint64(int64(R(in.Rs)) >> (R(in.Rt) & 63)))
	case ppisa.SLT:
		W(b2u(int64(R(in.Rs)) < int64(R(in.Rt))))
	case ppisa.SLTU:
		W(b2u(R(in.Rs) < R(in.Rt)))

	case ppisa.ADDI:
		W(R(in.Rs) + uint64(in.Imm))
	case ppisa.ANDI:
		W(R(in.Rs) & uint64(in.Imm))
	case ppisa.ORI:
		W(R(in.Rs) | uint64(in.Imm))
	case ppisa.XORI:
		W(R(in.Rs) ^ uint64(in.Imm))
	case ppisa.SLLI:
		W(R(in.Rs) << uint(in.Imm&63))
	case ppisa.SRLI:
		W(R(in.Rs) >> uint(in.Imm&63))
	case ppisa.SRAI:
		W(uint64(int64(R(in.Rs)) >> uint(in.Imm&63)))
	case ppisa.SLTI:
		W(b2u(int64(R(in.Rs)) < in.Imm))
	case ppisa.LUI:
		W(uint64(in.Imm&0xFFFF) << 16)

	case ppisa.FFS:
		v := R(in.Rs)
		if v == 0 {
			W(64)
		} else {
			n := uint64(0)
			for v&1 == 0 {
				v >>= 1
				n++
			}
			W(n)
		}
	case ppisa.EXT:
		W((R(in.Rs) >> uint(in.Imm)) & mask(in.Imm2))
	case ppisa.INS:
		m := mask(in.Imm2) << uint(in.Imm)
		W((R(in.Rd) &^ m) | ((R(in.Rs) << uint(in.Imm)) & m))
	case ppisa.ORFI:
		W(R(in.Rs) | mask(in.Imm2)<<uint(in.Imm))
	case ppisa.ANDFI:
		W(R(in.Rs) &^ (mask(in.Imm2) << uint(in.Imm)))

	case ppisa.LD:
		addr := R(in.Rs) + uint64(in.Imm)
		p.mdcAccess(addr, false)
		W(p.load(addr))
	case ppisa.ST:
		addr := R(in.Rs) + uint64(in.Imm)
		p.mdcAccess(addr, true)
		p.store(addr, R(in.Rd))

	case ppisa.BEQ:
		if R(in.Rs) == R(in.Rt) {
			return actBranch
		}
	case ppisa.BNE:
		if R(in.Rs) != R(in.Rt) {
			return actBranch
		}
	case ppisa.BLEZ:
		if int64(R(in.Rs)) <= 0 {
			return actBranch
		}
	case ppisa.BGTZ:
		if int64(R(in.Rs)) > 0 {
			return actBranch
		}
	case ppisa.BBS:
		if R(in.Rs)>>uint(in.Imm)&1 == 1 {
			return actBranch
		}
	case ppisa.BBC:
		if R(in.Rs)>>uint(in.Imm)&1 == 0 {
			return actBranch
		}
	case ppisa.J, ppisa.JAL:
		if in.Op == ppisa.JAL {
			wr.reg = int(in.Rd)
			wr.val = uint64(p.pc + 1)
		}
		return actBranch
	case ppisa.JR:
		p.jrTarget = int(R(in.Rs))
		return actBranchDyn

	case ppisa.MFH:
		W(p.inHdr[in.Imm])
	case ppisa.MTH:
		v := R(in.Rs)
		switch in.Imm {
		case ppisa.HdrType:
			p.outHdr.Type = v
		case ppisa.HdrAddr:
			p.outHdr.Addr = v
		case ppisa.HdrSrc:
			p.outHdr.Dst = v // symmetric: "src" slot addresses the target
		case ppisa.HdrReq:
			p.outHdr.Req = v
		case ppisa.HdrAux:
			p.outHdr.Aux = v
		}
	case ppisa.SEND:
		p.outHdr.Iface = int(in.Imm) & ppisa.SendIface
		p.outHdr.Data = in.Imm&ppisa.SendData != 0
		return actSend
	case ppisa.MEMRD:
		p.Env.MemRead(R(in.Rs), p.segCycles)
	case ppisa.MEMWR:
		p.Env.MemWrite(R(in.Rs), p.segCycles)
	case ppisa.WAITPC:
		return actWaitPC
	case ppisa.DONE:
		return actDone
	}
	return actNone
}

func (p *PP) mdcAccess(addr uint64, write bool) {
	hit, wb := p.MDC.Access(addr, write)
	if !hit {
		stall := p.Env.MDCFill(addr, wb, p.segCycles)
		p.segCycles += stall
		p.Stats.StallCycles += stall
	}
}

func (p *PP) load(addr uint64) uint64 {
	w := addr / 8
	if w >= p.memWords {
		panic(fmt.Sprintf("ppsim: protocol memory load out of range: %#x", addr))
	}
	return p.Mem.Load(w)
}

func (p *PP) store(addr, v uint64) {
	w := addr / 8
	if w >= p.memWords {
		panic(fmt.Sprintf("ppsim: protocol memory store out of range: %#x", addr))
	}
	if o := p.Mem.Owned(w); o != nil {
		*o = v
	} else {
		*p.Mem.Word(w) = v
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mask(width int64) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}
