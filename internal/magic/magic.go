// Package magic models the MAGIC node controller: the programmable heart of
// a FLASH node. It implements the control macropipeline of Section 2 of the
// paper — inbox (queue selection, jump table lookup, speculative memory
// initiation), protocol processor execution via ppsim, and outbox — along
// with the hardwired data-transfer logic timing, the bounded queues of
// Table 3.1, and the PI/NI interface latencies of Table 3.2.
package magic

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/ppisa"
	"flashsim/internal/ppsim"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Stats aggregates MAGIC-level statistics.
type Stats struct {
	Dispatches   uint64 // handler invocations (excluding pp_init)
	FFDispatches uint64 // of which ran functionally (fast-forward phases)
	FFNetSends   uint64 // functional node-to-node sends (bypass the modeled network)
}

type queued struct {
	msg   arch.Msg
	ready sim.Cycle
}

// inbox is one inbound message queue: a power-of-two ring that grows when
// full (the queues are unbounded — Table 3.1 backs a full inbound queue up
// into network buffering) and otherwise reuses its storage forever.
type inbox struct {
	buf     []queued
	head, n int
}

func (q *inbox) push(x queued) {
	if q.n == len(q.buf) {
		buf := make([]queued, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

func (q *inbox) pop() queued {
	x := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

// at returns the i-th oldest queued message.
func (q *inbox) at(i int) *queued { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// emptied is the queue with nothing in it and the same storage.
func (q *inbox) emptied() inbox { return inbox{buf: q.buf} }

// String lists the queued messages, oldest first.
func (q *inbox) String() string {
	msgs := make([]string, q.n)
	for i := range msgs {
		msg := q.at(i).msg
		msgs[i] = fmt.Sprintf("{%v %#x src=%d}", msg.Type, msg.Addr, msg.Src)
	}
	return fmt.Sprintf("%d%v", q.n, msgs)
}

// waitFor is what a blocked handler waits for: a slot in the outgoing
// network queue, the outgoing PI slot, or the processor cache's answer to
// an intervention.
type waitFor uint8

const (
	waitNone waitFor = iota // running, or woken and about to resume
	waitNet
	waitPI
	waitPC
)

func (w waitFor) String() string { return [...]string{"none", "net", "pi", "pc"}[w] }

// handlerCtx tracks one in-flight handler invocation. A controller has
// exactly one, in its in-flight record (Magic.handler): the PP runs one
// handler at a time, detailed or functional, so the invocation record is
// reused rather than allocated per dispatch.
type handlerCtx struct {
	busy       bool // claims the PP from dispatch until retire
	msg        arch.Msg
	slot       *protocol.Slot // the jump-table slot dispatched: entry pc and handler index
	ff         bool           // functional (fast-forward) invocation: ppEnv skips timing
	dispatched sim.Cycle      // handler start time
	segStart   sim.Cycle      // start of the current PP run segment

	tid        uint64    // trace id of this invocation (0 = untraced)
	dataReady  sim.Cycle // first word of the data buffer is available
	hasData    bool
	specIssued bool
	specUsed   bool
	intervened bool // data buffer was overwritten by a cache retrieval
	wait       waitFor
	pcDone     bool // intervention response arrived before WAITPC executed
	blockedAt  sim.Cycle
}

// holdsBuffer reports whether the handler holds a data buffer. It claims
// one when its message streams data in, when the inbox issues its
// speculative read, when it reads memory and when a cache intervention
// returns data, and gives it up when it retires.
func (ctx *handlerCtx) holdsBuffer() bool { return ctx.busy && (ctx.hasData || ctx.specIssued) }

// useData records a send of the data buffer, which makes a speculative read
// no cache retrieval overwrote of use, and returns when the buffer's first
// word is ready.
func (ctx *handlerCtx) useData() sim.Cycle {
	if ctx.specIssued && !ctx.intervened {
		ctx.specUsed = true
	}
	return ctx.dataReady
}

// Magic is one node's controller.
type Magic struct {
	ID  arch.NodeID
	Eng sim.Scheduler
	Cfg *arch.Config
	T   arch.Timing

	Prog *protocol.Program
	PP   *ppsim.PP
	Mem  *memsys.Memory
	CPU  *cpu.CPU
	Net  *network.Port

	ctlState

	// Tr, when non-nil, receives handler spans and message events. Injected
	// per machine (core.Machine.SetTracer).
	Tr *trace.Tracer

	flight

	// The event bodies of the miss path, built once: the three steps of a
	// handler's life (start at dispatch, resume after a stall, retire at its
	// last cycle), the release of a handler blocked on a full network queue,
	// the intervention completion, and the two message events (arrival from
	// the processor, a reply reaching the processor), whose messages ride in
	// pooled arch.MsgEvents from Evs. Nothing on the path allocates.
	startFn, wakeFn, retireFn, releaseFn func()
	pcDoneFn                             cpu.InterventionDone
	onProc, onToPI                       func(*arch.MsgEvent)
	Evs                                  arch.MsgEventPool

	// Sampled execution (arch.Config.Sample): in fast-forward phases
	// messages are processed functionally through runHandlerFF — the same
	// jump table and the same PP program, with fixed charge latencies and
	// synchronous node-to-node chains instead of modeled occupancy, queue
	// contention, and network transit.
	sampling bool
	sample   arch.SampleSpec

	// Peers maps node id to controller for the synchronous fast-forward
	// chains (wired by core on FLASH machines when sampling is enabled).
	// Safe only because sampling serializes the sharded engine.
	Peers []*Magic

	// Resolved design knobs: the outgoing network queue capacity (Table 3.1
	// default, overridable through arch.Config for the design-space sweep)
	// and the PP clock divisor — every PP cycle costs ppDiv system cycles.
	netQCap int
	ppDiv   sim.Cycle
}

// ctlState is the controller's simulated state between runs, listed once:
// Magic embeds it, and MagicState carries a copy. What a run holds in flight
// is the flight record; everything else in Magic is configuration or wiring.
type ctlState struct {
	Stats Stats
	rrPI  bool // round-robin fairness between PI and NI request queues

	// lastEnd tracks the previous handler's completion for the
	// non-overlap invariant (occupancies must never double-count).
	lastEnd sim.Cycle

	// handlers holds one service-time histogram per handler entry the
	// program's jump table interned: handlers[i] is Prog.JT.Names[i]'s, and
	// slots sharing an entry share its index. A histogram is allocated on
	// its entry's first detailed completion; its Sum is the entry's PP
	// occupancy (Table 3.4) and its Count the entry's invocations.
	handlers []*trace.Histogram

	// booted is set once protocol memory is initialized and pp_init has
	// run (boot); a zero ctlState is a controller still to boot.
	booted bool
}

// flight is the controller's in-flight state, listed once: the inbox
// queues, the outgoing slots and the handler the PP runs.
// RestoreState resets it in one statement, quiet tests it, DebugState prints
// every field.
type flight struct {
	qPI     inbox
	qNetReq inbox
	qNetRpl inbox

	outNet []injection // the outgoing network queue; see netQueued
	outPI  int         // accepted but not yet delivered (capacity 1)

	handler handlerCtx
}

func (f *flight) queuesEmpty() bool {
	return f.qPI.n == 0 && f.qNetReq.n == 0 && f.qNetRpl.n == 0
}

// netQueued counts the messages in the outgoing network queue at cycle now.
// A message leaves at its injection cycle, one due at now included: a
// handler's event is scheduled after every earlier send, so it sorts after
// the key reserved at that send (and OutboxOut + NIOutbound > 0 keeps an
// injection off the cycle of its send).
func (f *flight) netQueued(now sim.Cycle) (n int) {
	for _, x := range f.outNet {
		if x.at > now {
			n++
		}
	}
	return n
}

// quiet reports whether nothing is in flight at cycle now: no handler, no
// queued message in or out, no slot held. Only the busy handler holds a
// data buffer (holdsBuffer), so no buffer is held either.
func (f *flight) quiet(now sim.Cycle) bool {
	return !f.handler.busy && f.queuesEmpty() && f.netQueued(now) == 0 && f.outPI == 0
}

// injection is a queued network message's injection cycle and send key.
type injection struct {
	at  sim.Cycle
	key sim.Key
}

// queue capacities from Table 3.1 (netQueueCap is the default when
// arch.Config leaves NetQueueCap zero).
const (
	netQueueCap = 16
	piOutCap    = 1
)

// New builds a MAGIC controller. Call Attach afterwards to wire the CPU
// (construction order is circular). The controller dispatches through the
// program's jump table, which protocol.NewProgram resolved once and every
// controller running the program reads; only the per-handler accumulators
// are the controller's own.
func New(id arch.NodeID, eng sim.Scheduler, cfg *arch.Config, prog *protocol.Program, mem *memsys.Memory, net *network.Port) *Magic {
	m := &Magic{
		ID:       id,
		Eng:      eng,
		Cfg:      cfg,
		T:        cfg.Timing,
		Prog:     prog,
		Mem:      mem,
		Net:      net,
		sampling: cfg.Sample.Enabled(),
		sample:   cfg.Sample,
	}
	m.netQCap = cfg.NetQueueCap
	if m.netQCap == 0 {
		m.netQCap = netQueueCap
	}
	m.ppDiv = sim.Cycle(cfg.PPClockDiv)
	if m.ppDiv < 1 {
		m.ppDiv = 1
	}
	m.outNet = make([]injection, 0, min(m.netQCap, netQueueCap))
	m.startFn, m.wakeFn, m.retireFn, m.releaseFn, m.pcDoneFn = m.startHandler, m.resumePP, m.retire, m.releaseNet, m.pcDone
	m.onProc, m.onToPI = m.arriveProc, m.deliverPI
	mdc := ppsim.NewMDC(cfg.MDCSize, cfg.MDCWays)
	m.PP = ppsim.NewBackend(prog.Code, int(prog.Layout.MemBytes), mdc, (*ppEnv)(m), ppsim.BackendFor(cfg.PPDispatch))
	m.handlers = make([]*trace.Histogram, len(prog.JT.Names))
	return m
}

// Handlers returns the service-time histogram (dispatch through
// completion, stalls included) of every handler that completed in detail so
// far, keyed by entry-point name. The histograms are the live ones: callers
// must not modify them, and they keep counting if the machine runs on.
// Handlers run only functionally (fast-forward phases) have none.
func (m *Magic) Handlers() map[string]*trace.Histogram {
	out := make(map[string]*trace.Histogram, len(m.handlers))
	for i, h := range m.handlers {
		if h != nil {
			out[m.Prog.JT.Names[i]] = h
		}
	}
	return out
}

// PPBusy returns the PP's busy cycles so far: the sum of every handler's
// occupancy.
func (m *Magic) PPBusy() (busy sim.Cycle) {
	for _, h := range m.handlers {
		if h != nil {
			busy += sim.Cycle(h.Sum)
		}
	}
	return busy
}

// Attach wires the processor and boots the controller.
func (m *Magic) Attach(c *cpu.CPU) {
	m.CPU = c
	m.boot()
}

// boot initializes protocol memory and runs pp_init to establish the
// protocol's persistent registers: the one boot path, taken at Attach and
// when RestoreState installs a zero state.
func (m *Magic) boot() {
	m.Prog.Layout.InitMemory(m.PP.Mem, m.ID, m.Cfg.NodeBase(m.ID), m.Cfg.Nodes)
	if st, _ := m.PP.Start("pp_init"); st != ppsim.StatusDone {
		panic("magic: pp_init did not complete")
	}
	m.booted = true
}

// FromProc receives a message from the processor side; at is when it
// crossed the processor bus.
func (m *Magic) FromProc(msg arch.Msg, at sim.Cycle) {
	m.Eng.At(at+sim.Cycle(m.T.PIInbound), m.Evs.Get(m.onProc, msg).Fire)
}

func (m *Magic) arriveProc(ev *arch.MsgEvent) {
	m.qPI.push(queued{m.Evs.Take(ev), m.Eng.Now()})
	m.tryDispatch()
}

// NIInbound is the NI inbound stage ahead of FromNet (network.NISink).
func (m *Magic) NIInbound() sim.Cycle { return sim.Cycle(m.T.NIInbound) }

// FromNet receives a message past the NI inbound stage (network.Sink).
func (m *Magic) FromNet(msg arch.Msg) {
	m.netInbox(msg.Type).push(queued{msg, m.Eng.Now()})
	m.tryDispatch()
}

// netInbox selects the network-side queue for a message type: replies have
// their own (deadlock avoidance).
func (m *Magic) netInbox(t arch.MsgType) *inbox {
	if t.IsReply() {
		return &m.qNetRpl
	}
	return &m.qNetReq
}

// tryDispatch starts the next handler if the PP is idle and a message is
// waiting. Replies have priority (deadlock avoidance); the PI and NI
// request queues alternate. In fast-forward phases the queues drain
// functionally instead.
func (m *Magic) tryDispatch() {
	if m.handler.busy {
		return
	}
	if m.sampling && !m.sample.Detailed(uint64(m.Eng.Now())) {
		m.drainFF()
		return
	}
	msg, viaNet, _, ok := m.popQueue()
	if !ok {
		return
	}

	now := m.Eng.Now()
	dispatch := now + sim.Cycle(m.T.InboxSelect) + sim.Cycle(m.T.JumpTable)
	slot := m.slot(msg, viaNet)
	ctx := &m.handler
	*ctx = handlerCtx{busy: true, msg: msg, slot: slot, dispatched: dispatch} // claims the PP until retire
	if msg.Type.CarriesData() {
		// The data streamed into a buffer alongside the header.
		ctx.hasData = true
		ctx.dataReady = now
	}
	if slot.Spec && m.Cfg.Speculation {
		fw, _ := m.Mem.SpeculativeRead(dispatch)
		ctx.specIssued = true
		if !ctx.hasData {
			ctx.dataReady = fw + 1
		}
	}
	m.Eng.At(dispatch, m.startFn)
}

// popQueue removes the next message under the inbox arbitration rules:
// replies first, then PI/NI request round-robin. ready is the message's
// arrival time (used by the functional drain; detailed dispatch runs off
// the engine clock).
func (m *Magic) popQueue() (msg arch.Msg, viaNet bool, ready sim.Cycle, ok bool) {
	var q queued
	switch {
	case m.qNetRpl.n > 0:
		q, viaNet = m.qNetRpl.pop(), true
	case m.qPI.n > 0 && (m.rrPI || m.qNetReq.n == 0):
		q, m.rrPI = m.qPI.pop(), false
	case m.qNetReq.n > 0:
		q, viaNet, m.rrPI = m.qNetReq.pop(), true, true
	default:
		return arch.Msg{}, false, 0, false
	}
	return q.msg, viaNet, q.ready, true
}

// injectFF hands a message to this controller functionally, with at as its
// nominal arrival time. If the PP is busy — a detailed handler is still in
// flight across the phase boundary, or an outer functional handler on this
// node's chain is mid-run — the message queues and drains when the PP
// frees. Otherwise the handler (and everything it causes, recursively
// across nodes) runs to completion right now. Safe only single-threaded:
// the sequential engine always is, and core serializes the sharded engine
// whenever sampling is enabled.
func (m *Magic) injectFF(msg arch.Msg, viaNet bool, at sim.Cycle) {
	if m.handler.busy || !m.queuesEmpty() {
		q := &m.qPI
		if viaNet {
			q = m.netInbox(msg.Type)
		}
		q.push(queued{msg, at})
		if !m.handler.busy {
			m.drainFF()
		}
		return
	}
	m.runHandlerFF(msg, viaNet, at)
	m.drainFF()
}

// FromProcFF is the functional counterpart of FromProc: the miss request
// enters the controller synchronously (cpu.Ctl).
func (m *Magic) FromProcFF(msg arch.Msg, at sim.Cycle) {
	m.injectFF(msg, false, at+sim.Cycle(m.T.PIInbound))
}

// drainFF empties the inbox queues functionally: each handler runs to
// completion through the regular jump table and PP program, so directory
// state, the MDC, processor caches, and memory values evolve exactly as the
// protocol dictates — only the timing (PP occupancy, queue contention,
// memory/bus reservations, network transit) is replaced by fixed charges.
func (m *Magic) drainFF() {
	for !m.handler.busy {
		msg, viaNet, ready, ok := m.popQueue()
		if !ok {
			return
		}
		m.runHandlerFF(msg, viaNet, ready)
	}
}

// runHandlerFF executes one handler invocation functionally. Sends always
// succeed (functional queues are unbounded), processor-cache interventions
// resolve synchronously, so the PP can only return WaitPC transiently —
// never BlockedSend — and the resume loop below is bounded.
func (m *Magic) runHandlerFF(msg arch.Msg, viaNet bool, at sim.Cycle) {
	dispatch := at + sim.Cycle(m.T.InboxSelect) + sim.Cycle(m.T.JumpTable)
	ctx := &m.handler
	*ctx = handlerCtx{busy: true, msg: msg, slot: m.slot(msg, viaNet), ff: true, dispatched: dispatch, segStart: dispatch}
	if msg.Type.CarriesData() {
		ctx.hasData = true
		ctx.dataReady = dispatch
	}
	m.Stats.Dispatches++
	m.Stats.FFDispatches++

	m.loadHeader(msg)
	pp := m.PP
	st, _ := pp.StartAt(ctx.slot.PC)
	for i := 0; st != ppsim.StatusDone; i++ {
		if i > 1<<16 {
			panic(fmt.Sprintf("magic%d: functional handler %s did not converge (status %v)", m.ID, m.Prog.JT.Names[ctx.slot.Handler], st))
		}
		st, _ = pp.Resume()
	}
	ctx.busy = false
}

// startHandler is the dispatch event: the inbox's selection and jump-table
// stages are over and the PP begins the handler tryDispatch claimed it for.
func (m *Magic) startHandler() {
	ctx := &m.handler
	m.Stats.Dispatches++
	if m.Tr.Active() {
		// The invocation's id is minted at dispatch; the span itself is
		// emitted at completion, when the duration is known.
		ctx.tid = m.Tr.NewID()
	}

	m.loadHeader(ctx.msg)
	ctx.segStart = ctx.dispatched
	st, cyc := m.PP.StartAt(ctx.slot.PC)
	m.handleStatus(st, cyc)
}

// slot is the jump-table lookup for msg, arriving from the network (viaNet)
// or the processor; a combination with no handler is a protocol bug.
func (m *Magic) slot(msg arch.Msg, viaNet bool) *protocol.Slot {
	isHome := m.Cfg.HomeOf(msg.Addr) == m.ID
	s := &m.Prog.JT.Slots[b2i(viaNet)][b2i(isHome)][msg.Type]
	if !s.OK {
		panic(fmt.Sprintf("magic%d: no handler for %s (viaNet=%v isHome=%v)", m.ID, msg.Type, viaNet, isHome))
	}
	return s
}

// loadHeader is the inbox's header preprocessing: it loads msg into the
// PP's incoming header registers, with HdrDirOff the line's directory
// offset at its home and the home's node id elsewhere.
func (m *Magic) loadHeader(msg arch.Msg) {
	pp := m.PP
	pp.InHeader(ppisa.HdrType, uint64(msg.Type))
	pp.InHeader(ppisa.HdrAddr, uint64(msg.Addr))
	pp.InHeader(ppisa.HdrSrc, uint64(msg.Src))
	pp.InHeader(ppisa.HdrReq, uint64(msg.Req))
	pp.InHeader(ppisa.HdrAux, uint64(msg.Aux))
	pp.InHeader(ppisa.HdrSelf, uint64(m.ID))
	if home := m.Cfg.HomeOf(msg.Addr); home == m.ID {
		pp.InHeader(ppisa.HdrDirOff, m.Prog.Layout.DirOffset(m.Cfg.LocalLine(msg.Addr)))
	} else {
		pp.InHeader(ppisa.HdrDirOff, uint64(home))
	}
}

// handleStatus advances MAGIC state after a PP run segment.
func (m *Magic) handleStatus(st ppsim.Status, cyc uint64) {
	ctx := &m.handler
	end := ctx.segStart + sim.Cycle(cyc)*m.ppDiv
	switch st {
	case ppsim.StatusDone:
		if ctx.dispatched < m.lastEnd {
			panic(fmt.Sprintf("magic%d: handler %s dispatched at %d overlaps previous end %d",
				m.ID, m.Prog.JT.Names[ctx.slot.Handler], ctx.dispatched, m.lastEnd))
		}
		m.lastEnd = end
		occ := end - ctx.dispatched
		h := m.handlers[ctx.slot.Handler]
		if h == nil {
			h = new(trace.Histogram)
			m.handlers[ctx.slot.Handler] = h
		}
		h.Observe(uint64(occ))
		if m.Tr.Active() {
			m.Tr.Emit(trace.Event{
				Cycle: uint64(ctx.dispatched), Dur: uint64(occ), Node: int32(m.ID),
				Kind: trace.KindHandler, Addr: uint64(ctx.msg.Addr),
				ID: ctx.tid, Parent: ctx.msg.TID, Name: m.Prog.JT.Names[ctx.slot.Handler],
			})
		}
		if ctx.specIssued && (!ctx.specUsed || ctx.intervened) {
			m.Mem.MarkUseless()
		}
		// The PP stays claimed until the handler's last cycle retires; the
		// run segment executed synchronously ahead of the clock.
		m.Eng.At(end, m.retireFn)

	case ppsim.StatusBlockedSend:
		// The refused send set ctx.wait; the event that frees its slot
		// resumes us. No event ran since the refusal, so the slot is still
		// taken.
		ctx.blockedAt = end

	case ppsim.StatusWaitPC:
		ctx.blockedAt = end
		if ctx.pcDone {
			ctx.pcDone = false
			m.wake(end)
		} else {
			ctx.wait = waitPC // the intervention completion resumes us
		}
	}
}

// retire is a handler's last cycle: the PP frees and the inbox arbitrates.
func (m *Magic) retire() {
	m.handler.busy = false
	m.tryDispatch()
}

// wake resumes the blocked PP at time t (>= the block time). It clears
// ctx.wait, so a second release before the resume wakes nothing.
func (m *Magic) wake(t sim.Cycle) {
	ctx := &m.handler
	ctx.wait = waitNone
	m.Eng.At(max(t, ctx.blockedAt), m.wakeFn)
}

// resumePP is the wake event. The handler it resumes is still the one that
// blocked: a blocked handler cannot retire, and wake admits one resume.
func (m *Magic) resumePP() {
	ctx := &m.handler
	ctx.segStart = m.Eng.Now()
	st, cyc := m.PP.Resume()
	m.handleStatus(st, cyc)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ppEnv adapts Magic to the ppsim.Env interface.
type ppEnv Magic

func (e *ppEnv) magic() *Magic { return (*Magic)(e) }

// TrySend launches an outgoing message composed by the handler.
func (e *ppEnv) TrySend(h ppsim.OutHeader, dt uint64) bool {
	m := e.magic()
	ctx := &m.handler
	if ctx.ff {
		return m.sendFF(h)
	}
	tSend := ctx.segStart + sim.Cycle(dt)*m.ppDiv
	mt := arch.MsgType(h.Type)

	if h.Iface == ppisa.SendPI {
		switch mt {
		case arch.MsgPIInval, arch.MsgPIDowngr, arch.MsgPIFlush:
			return m.sendIntervention(mt, arch.Addr(h.Addr), tSend)
		}
		return m.sendToPI(h, tSend)
	}
	return m.sendToNet(h, tSend)
}

// sendFF is the functional outbox: sends never block (queues are unbounded
// functionally), interventions resolve synchronously, local replies deliver
// synchronously to the processor, and node-to-node messages hop straight
// into the destination controller with a fixed transit charge — no engine
// events, no modeled network. Anything a synchronous hop cannot run
// immediately (the destination PP is busy) queues there and drains when it
// frees, so chains always terminate.
func (m *Magic) sendFF(h ppsim.OutHeader) bool {
	ctx := &m.handler
	mt := arch.MsgType(h.Type)
	if h.Iface == ppisa.SendPI {
		switch mt {
		case arch.MsgPIInval, arch.MsgPIDowngr, arch.MsgPIFlush:
			resp := m.CPU.InterveneFF(mt, arch.Addr(h.Addr))
			if mt != arch.MsgPIInval {
				// The handler's upcoming WAITPC finds the response already
				// recorded; runHandlerFF's resume loop carries it through.
				if resp == arch.MsgPCData {
					m.PP.SetPCResponse(1)
					ctx.hasData = true
					ctx.dataReady = ctx.dispatched
				} else {
					m.PP.SetPCResponse(0)
				}
			}
			return true
		}
		at := ctx.dispatched + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.PIOutbound) + sim.Cycle(m.T.PIBusWord)
		// Synchronous delivery: if this resumes the processor and it issues
		// a new miss, the re-entrant request queues (the PP is busy with
		// this handler) and drains when we finish.
		m.CPU.DeliverFF(m.msgFrom(h), at)
		return true
	}
	m.Stats.FFNetSends++
	at := ctx.dispatched + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.NIOutbound) +
		sim.Cycle(m.T.NetTransit) + sim.Cycle(m.T.NIInbound)
	m.Peers[h.Dst].injectFF(m.msgFrom(h), true, at)
	return true
}

// sendIntervention issues a processor-cache transaction. For
// PIDowngr/PIFlush the handler stalls with WAITPC afterwards; PIInval is
// fire-and-forget.
func (m *Magic) sendIntervention(mt arch.MsgType, addr arch.Addr, tSend sim.Cycle) bool {
	at := tSend + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.PIOutbound)
	done := m.pcDoneFn
	if mt == arch.MsgPIInval {
		done = nil
	}
	m.CPU.Intervene(mt, addr, at, m.handler.msg, done)
	return true
}

// pcDone is the processor cache's response to a PIDowngr or PIFlush. It
// updates the one embedded handlerCtx, and that is safe because the handler
// that issued the intervention is still the one in flight: it stalls on
// WAITPC until this response (or finds pcDone set), so it cannot have
// retired. The only completion that can outlive its handler is PIInval's —
// fire-and-forget, its handler may retire and a new one reuse the context
// before the cache answers — and PIInval registers no callback at all, so a
// late completion touches nothing.
func (m *Magic) pcDone(_ arch.Msg, resp arch.MsgType, firstData sim.Cycle) {
	ctx := &m.handler
	if resp == arch.MsgPCData {
		m.PP.SetPCResponse(1)
		ctx.hasData = true
		ctx.intervened = true
		ctx.dataReady = firstData + 1
	} else {
		m.PP.SetPCResponse(0)
	}
	if ctx.wait == waitPC {
		m.wake(m.Eng.Now())
	} else {
		// The PP has not reached its WAITPC yet (response raced the
		// handler); mark completion so handleStatus wakes us directly.
		ctx.pcDone = true
	}
}

// sendToPI delivers a reply (PUT/PUTX/NAK) to the local processor.
func (m *Magic) sendToPI(h ppsim.OutHeader, tSend sim.Cycle) bool {
	if m.outPI >= piOutCap {
		m.handler.wait = waitPI
		return false
	}
	m.outPI++
	deliver := tSend + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.PIOutbound)
	if h.Data {
		deliver = max(deliver, m.handler.useData())
	}
	deliver += sim.Cycle(m.T.PIBusWord)
	m.Eng.At(deliver, m.Evs.Get(m.onToPI, m.msgFrom(h)).Fire)
	return true
}

// deliverPI is a reply's first word crossing the bus to the processor: the
// outgoing PI slot frees (waking a handler stalled on it) and the miss
// completes.
func (m *Magic) deliverPI(ev *arch.MsgEvent) {
	m.outPI--
	if m.handler.busy && m.handler.wait == waitPI {
		m.wake(m.Eng.Now())
	}
	m.CPU.Deliver(m.Evs.Take(ev), m.Eng.Now())
}

// sendToNet injects a message into the interconnect through the outgoing
// network queue (capacity 16) and the NI outbound stage; the port takes it
// now, stamped with its injection cycle.
func (m *Magic) sendToNet(h ppsim.OutHeader, tSend sim.Cycle) bool {
	if len(m.outNet) >= m.netQCap {
		// Forget the messages that have left (see netQueued). If none has,
		// the first injection to come frees a slot, released under the key
		// reserved at its send (DESIGN.md §11, TestNetReleaseInSendOrder).
		now, q, first := m.Eng.Now(), m.outNet[:0], m.outNet[0]
		for _, x := range m.outNet {
			if x.at > now {
				q = append(q, x)
			}
			if x.at < first.at {
				first = x
			}
		}
		if m.outNet = q; len(q) >= m.netQCap {
			m.Eng.AtKey(first.at, first.key, m.releaseFn)
			m.handler.wait = waitNet
			return false
		}
	}
	inject := tSend + sim.Cycle(m.T.OutboxOut)
	if h.Data {
		inject = max(inject, m.handler.useData())
	}
	inject += sim.Cycle(m.T.NIOutbound)
	m.outNet = append(m.outNet, injection{inject, m.Eng.Reserve()})
	m.Net.Send(inject, m.msgFrom(h))
	return true
}

// releaseNet wakes the handler blocked on a full network queue.
func (m *Magic) releaseNet() { m.wake(m.Eng.Now()) }

func (m *Magic) msgFrom(h ppsim.OutHeader) arch.Msg {
	db := int16(-1)
	if h.Data {
		db = 0
	}
	return arch.Msg{
		Type: arch.MsgType(h.Type),
		Addr: arch.Addr(h.Addr),
		Src:  m.ID,
		Dst:  arch.NodeID(h.Dst),
		Req:  arch.NodeID(h.Req),
		Aux:  uint32(h.Aux),
		DB:   db,
		TID:  m.handler.tid, // causal parent: the composing handler invocation
	}
}

// MemRead handles a handler-initiated memory read. When the inbox already
// issued the speculative read for this message the two coalesce.
func (e *ppEnv) MemRead(addr uint64, dt uint64) {
	m := e.magic()
	ctx := &m.handler
	if ctx.ff {
		// Functional: data values live in the backing store, so there is
		// nothing to move — just mark the buffer present, with no memory
		// controller reservation or occupancy.
		ctx.hasData = true
		ctx.dataReady = m.Eng.Now()
		return
	}
	if ctx.specIssued {
		return // data already on the way
	}
	fw, _ := m.Mem.Read(ctx.segStart + sim.Cycle(dt)*m.ppDiv)
	ctx.hasData = true
	ctx.dataReady = fw + 1
}

// MemWrite writes the handler's data buffer back to memory (posted).
func (e *ppEnv) MemWrite(addr uint64, dt uint64) {
	m := e.magic()
	if m.handler.ff {
		return
	}
	m.Mem.Write(m.handler.segStart + sim.Cycle(dt)*m.ppDiv)
}

// MDCFill services a MAGIC data cache miss: a full-line read from local
// memory (plus a posted writeback of the victim when dirty). The returned
// stall covers queueing plus the 29-cycle line access.
func (e *ppEnv) MDCFill(addr uint64, writeback bool, dt uint64) uint64 {
	m := e.magic()
	if !m.handler.busy || m.handler.ff {
		// Boot-time fill (pp_init) or a functional handler: the MDC tag
		// state already updated inside ppsim; charge the flat miss penalty
		// with no memory reservation. The penalty is system cycles; the PP
		// counts its own (possibly slower) cycles, so divide rounding up.
		return uint64((m.T.MDCMiss + uint32(m.ppDiv) - 1) / uint32(m.ppDiv))
	}
	t := m.handler.segStart + sim.Cycle(dt)*m.ppDiv
	_, done := m.Mem.Read(t)
	if writeback {
		m.Mem.Write(done)
	}
	// The memory stall elapsed in system cycles; the PP charges it in PP
	// cycles, rounding up so the handler never resumes before the data.
	return uint64((done - t + m.ppDiv - 1) / m.ppDiv)
}

// MagicState is a captured quiesced controller: its ctlState, its PP
// (registers and protocol memory, which holds the directory) and its MDC.
// The zero MagicState is a freshly constructed-and-attached controller.
type MagicState struct {
	ctlState
	pp  ppsim.PPState
	mdc ppsim.MDCState
}

// CaptureState snapshots a quiesced controller. A handler in flight, a
// nonempty inbox queue, or outbound slots or data buffers in use mean the
// machine has pending events and is not at a snapshot point: an error
// naming the node and the cycle.
func (m *Magic) CaptureState() (MagicState, error) {
	if !m.quiet(m.Eng.Now()) {
		return MagicState{}, fmt.Errorf("magic%d: not quiescent at cycle %d: %s", m.ID, m.Eng.Now(), m.DebugState())
	}
	pp, err := m.PP.CaptureState()
	if err != nil {
		return MagicState{}, fmt.Errorf("magic%d: cycle %d: %w", m.ID, m.Eng.Now(), err)
	}
	st := MagicState{m.ctlState, pp, m.PP.MDC.CaptureState()}
	st.handlers = make([]*trace.Histogram, len(m.handlers))
	for i, h := range m.handlers {
		st.handlers[i] = cloneHist(h)
	}
	return st, nil
}

// RestoreState installs a captured state into a controller built for the
// same protocol program and configuration, emptying its queues and idling
// its PP; a zero state boots the controller afresh.
func (m *Magic) RestoreState(st MagicState) {
	m.PP.RestoreState(st.pp)
	m.PP.MDC.RestoreState(st.mdc)
	// The controller counts into copies, so a capture can be restored
	// twice; the zero state drops every histogram.
	arch.RestoreSlice(m.handlers, st.handlers)
	for i, h := range m.handlers {
		m.handlers[i] = cloneHist(h)
	}
	st.handlers = m.handlers
	m.ctlState = st.ctlState
	m.flight = flight{qPI: m.qPI.emptied(), qNetReq: m.qNetReq.emptied(), qNetRpl: m.qNetRpl.emptied(), outNet: m.outNet[:0]}
	if !m.booted {
		m.boot()
	}
}

// cloneHist copies a materialized handler histogram; nil stays nil.
func cloneHist(h *trace.Histogram) *trace.Histogram {
	if h == nil {
		return nil
	}
	c := *h
	return &c
}

// DebugState renders every in-flight field — for the handler its entry
// name, message, wait and the rest of its context — and the PP's execution
// state, for hang diagnosis.
func (m *Magic) DebugState() string {
	s := fmt.Sprintf("qPI=%v qNetReq=%v qNetRpl=%v outNet=%d outPI=%d buffer=%v handler=", &m.qPI, &m.qNetReq, &m.qNetRpl, m.netQueued(m.Eng.Now()), m.outPI, m.handler.holdsBuffer())
	if h := &m.handler; h.busy {
		s += fmt.Sprintf("{busy=true entry=%s msg={%v %#x src=%d req=%d} wait=%v blockedAt=%d pcDone=%v ff=%v dispatched=%d segStart=%d tid=%d slot={pc=%d spec=%v} hasData=%v dataReady=%d specIssued=%v specUsed=%v intervened=%v}",
			m.Prog.JT.Names[h.slot.Handler], h.msg.Type, h.msg.Addr, h.msg.Src, h.msg.Req, h.wait, h.blockedAt, h.pcDone, h.ff, h.dispatched, h.segStart, h.tid,
			h.slot.PC, h.slot.Spec, h.hasData, h.dataReady, h.specIssued, h.specUsed, h.intervened)
	} else {
		s += "idle"
	}
	return s + " pp={" + m.PP.DebugState() + "}"
}
