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
	Dispatches    uint64 // handler invocations (excluding pp_init)
	FFDispatches  uint64 // of which ran functionally (fast-forward phases)
	FFNetSends    uint64 // functional node-to-node sends (bypass the modeled network)
	NetSends      uint64
	PISends       uint64
	Interventions uint64
	NetBlocks     uint64 // PP stalls on a full outgoing network queue
	PIBlocks      uint64 // PP stalls on a busy outgoing PI slot
	QueueHighPI   int
	QueueHighNet  int
	BufHigh       int // data buffer high-water mark
	BufOverflow   uint64
}

// HandlerStat accumulates one handler entry's PP occupancy (Table 3.4),
// invocation count and service-time histogram (dispatch through completion,
// including send/intervention stalls). Completion accounting bumps it
// through a pointer interned in the jump table, keeping handler names (and
// map lookups) entirely off the dispatch hot path. A snapshot stores it by
// value.
type HandlerStat struct {
	Cycles sim.Cycle
	Count  uint64
	Lat    trace.Histogram
}

// jtSlot is one predecoded jump-table slot: the handler's pair index and
// speculation flag from the protocol's dispatch rules, resolved once at
// construction.
type jtSlot struct {
	pc    int
	spec  bool
	ok    bool // false: no handler for this (type, path, home) combination
	entry string
	agg   *HandlerStat
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

// reset empties the queue, keeping its storage.
func (q *inbox) reset() { q.head, q.n = 0, 0 }

// handlerCtx tracks one in-flight handler invocation. A controller has
// exactly one, embedded (Magic.hctx): the PP runs one handler at a time,
// detailed or functional, so the invocation record is reused rather than
// allocated per dispatch.
type handlerCtx struct {
	msg        arch.Msg
	entry      string // handler name, for traces and diagnostics only
	pc         int    // interned entry pair index (jump table)
	agg        *HandlerStat
	viaNet     bool
	ff         bool      // functional (fast-forward) invocation: ppEnv skips timing
	dispatched sim.Cycle // handler start time
	segStart   sim.Cycle // start of the current PP run segment

	tid         uint64    // trace id of this invocation (0 = untraced)
	dataReady   sim.Cycle // first word of the data buffer is available
	hasData     bool
	specIssued  bool
	specUsed    bool
	intervened  bool // data buffer was overwritten by a cache retrieval
	blockedNet  bool
	blockedPI   bool
	waitingPC   bool
	pcDone      bool // intervention response arrived before WAITPC executed
	blockedAt   sim.Cycle
	pendingWake bool
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

	PPOcc sim.OccupancyMeter
	Stats Stats

	// Tr, when non-nil, receives handler spans and message events. Injected
	// per machine (core.Machine.SetTracer).
	Tr *trace.Tracer
	// PPSeries, when non-nil, samples PP busy cycles over fixed windows
	// (core.Machine.EnableOccSampling).
	PPSeries *trace.TimeSeries

	qPI     inbox
	qNetReq inbox
	qNetRpl inbox
	rrPI    bool // round-robin fairness between PI and NI request queues

	outNet int // accepted but not yet injected
	outPI  int // accepted but not yet delivered (capacity 1)
	bufs   int // data buffers in use

	ctx  *handlerCtx // &hctx while a handler is in flight, nil when the PP is idle
	hctx handlerCtx

	// The event bodies of the miss path, built once: the three steps of a
	// handler's life (start at dispatch, resume after a stall, retire at its
	// last cycle), the intervention completion, and the four message events
	// (arrival from the processor and from the network, a reply reaching the
	// processor, an injection into the network), whose messages ride in
	// pooled arch.MsgEvents from Evs. Nothing on the path allocates.
	startFn, wakeFn, retireFn      func()
	pcDoneFn                       cpu.InterventionDone
	onProc, onNet, onToPI, onToNet func(*arch.MsgEvent)
	Evs                            arch.MsgEventPool

	// jt is the inbox jump table, indexed [viaNet][isHome][msg type]: the
	// protocol's dispatch rules and the handler entry-point map, both
	// string-keyed, resolved once at construction (Section 2's hardware
	// jump table did the same lookup in a dedicated RAM).
	jt [2][2][arch.NumMsgTypes]jtSlot

	// handlers interns one accumulator per handler entry name; jump-table
	// slots sharing an entry share the accumulator.
	handlers map[string]*HandlerStat

	dispatchScheduled bool

	// lastEnd tracks the previous handler's completion for the
	// non-overlap invariant (occupancies must never double-count).
	lastEnd sim.Cycle

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

	// Resolved design knobs: queue/buffer capacities (Table 3.1 defaults,
	// overridable through arch.Config for the design-space sweep) and the
	// PP clock divisor — every PP cycle costs ppDiv system cycles.
	netQCap    int
	dataBufCap int
	ppDiv      sim.Cycle
}

// queue capacities from Table 3.1 (the defaults when arch.Config leaves
// NetQueueCap/DataBufs zero).
const (
	netQueueCap = 16
	piOutCap    = 1
	dataBufs    = 16
)

// New builds a MAGIC controller. Call Attach afterwards to wire the CPU
// (construction order is circular). The protocol's dispatch rules and the
// program's entry-point map are interned into a dense jump table here, so
// an inconsistent protocol/program pairing fails at construction instead
// of mid-simulation.
func New(id arch.NodeID, eng sim.Scheduler, cfg *arch.Config, prog *protocol.Program, mem *memsys.Memory, net *network.Port) (*Magic, error) {
	m := &Magic{
		ID:       id,
		Eng:      eng,
		Cfg:      cfg,
		T:        cfg.Timing,
		Prog:     prog,
		Mem:      mem,
		Net:      net,
		handlers: make(map[string]*HandlerStat),
		sampling: cfg.Sample.Enabled(),
		sample:   cfg.Sample,
	}
	m.netQCap = cfg.NetQueueCap
	if m.netQCap == 0 {
		m.netQCap = netQueueCap
	}
	m.dataBufCap = cfg.DataBufs
	if m.dataBufCap == 0 {
		m.dataBufCap = dataBufs
	}
	m.ppDiv = sim.Cycle(cfg.PPClockDiv)
	if m.ppDiv < 1 {
		m.ppDiv = 1
	}
	m.startFn, m.wakeFn, m.retireFn, m.pcDoneFn = m.startHandler, m.resumePP, m.retire, m.pcDone
	m.onProc, m.onNet, m.onToPI, m.onToNet = m.arriveProc, m.arriveNet, m.deliverPI, m.injectNet
	mdc := ppsim.NewMDC(cfg.MDCSize, cfg.MDCWays)
	m.PP = ppsim.NewBackend(prog.Code, int(prog.Layout.MemBytes), mdc, (*ppEnv)(m), ppsim.BackendFor(cfg.PPDispatch))
	prog.Layout.InitMemory(m.PP.Mem, id, cfg.NodeBase(id), cfg.Nodes)
	for viaNet := 0; viaNet < 2; viaNet++ {
		for isHome := 0; isHome < 2; isHome++ {
			for t := arch.MsgType(0); t < arch.NumMsgTypes; t++ {
				jt, ok := protocol.Lookup(t, viaNet == 1, isHome == 1)
				if !ok {
					continue // no handler on this path; stays !ok
				}
				pc, err := m.PP.EntryPC(jt.Entry)
				if err != nil {
					return nil, fmt.Errorf("magic%d: jump table slot %s (viaNet=%v isHome=%v): %w",
						id, t, viaNet == 1, isHome == 1, err)
				}
				agg := m.handlers[jt.Entry]
				if agg == nil {
					agg = &HandlerStat{}
					m.handlers[jt.Entry] = agg
				}
				m.jt[viaNet][isHome][t] = jtSlot{pc: pc, spec: jt.Spec, ok: true, entry: jt.Entry, agg: agg}
			}
		}
	}
	return m, nil
}

// Handlers returns the statistics of every handler invoked so far, keyed
// by entry-point name. The entries are the live accumulators, not copies:
// callers must not modify them, and they keep counting if the machine runs
// on.
func (m *Magic) Handlers() map[string]*HandlerStat {
	out := make(map[string]*HandlerStat, len(m.handlers))
	for name, h := range m.handlers {
		if h.Count > 0 {
			out[name] = h
		}
	}
	return out
}

// Attach wires the processor and boots the PP (runs pp_init to establish
// the protocol's persistent registers).
func (m *Magic) Attach(c *cpu.CPU) {
	m.CPU = c
	if st, _ := m.PP.Start("pp_init"); st != ppsim.StatusDone {
		panic("magic: pp_init did not complete")
	}
}

// MDC exposes the MAGIC data cache for statistics.
func (m *Magic) MDC() *ppsim.MDC { return m.PP.MDC }

// FromProc receives a message from the processor side; at is when it
// crossed the processor bus.
func (m *Magic) FromProc(msg arch.Msg, at sim.Cycle) {
	m.Eng.At(at+sim.Cycle(m.T.PIInbound), m.Evs.Get(m.onProc, msg).Fire)
}

func (m *Magic) arriveProc(ev *arch.MsgEvent) {
	m.qPI.push(queued{m.Evs.Take(ev), m.Eng.Now()})
	if m.qPI.n > m.Stats.QueueHighPI {
		m.Stats.QueueHighPI = m.qPI.n
	}
	m.tryDispatch()
}

// FromNet receives a message from the interconnect (network.Sink).
func (m *Magic) FromNet(msg arch.Msg) {
	m.Eng.After(sim.Cycle(m.T.NIInbound), m.Evs.Get(m.onNet, msg).Fire)
}

func (m *Magic) arriveNet(ev *arch.MsgEvent) {
	msg := m.Evs.Take(ev)
	m.netInbox(msg.Type).push(queued{msg, m.Eng.Now()})
	if n := m.qNetReq.n + m.qNetRpl.n; n > m.Stats.QueueHighNet {
		m.Stats.QueueHighNet = n
	}
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
	if m.ctx != nil || m.dispatchScheduled {
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
	isHome := m.Cfg.HomeOf(msg.Addr) == m.ID
	slot := &m.jt[b2i(viaNet)][b2i(isHome)][msg.Type]
	if !slot.ok {
		panic(fmt.Sprintf("magic%d: no handler for %s (viaNet=%v isHome=%v)", m.ID, msg.Type, viaNet, isHome))
	}

	ctx := &m.hctx
	*ctx = handlerCtx{msg: msg, entry: slot.entry, pc: slot.pc, agg: slot.agg, viaNet: viaNet, dispatched: dispatch}
	if msg.Type.CarriesData() {
		// The data streamed into a buffer alongside the header.
		ctx.hasData = true
		ctx.dataReady = now
		m.allocBuf()
	}
	if slot.spec && m.Cfg.Speculation {
		fw, _ := m.Mem.SpeculativeRead(dispatch)
		ctx.specIssued = true
		if !ctx.hasData {
			ctx.dataReady = fw + 1
			m.allocBuf()
		}
	}
	m.ctx = ctx
	m.dispatchScheduled = true
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
	if m.ctx != nil || !m.queuesEmpty() {
		q := &m.qPI
		if viaNet {
			q = m.netInbox(msg.Type)
		}
		q.push(queued{msg, at})
		if m.ctx == nil {
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

func (m *Magic) queuesEmpty() bool {
	return m.qPI.n == 0 && m.qNetReq.n == 0 && m.qNetRpl.n == 0
}

// drainFF empties the inbox queues functionally: each handler runs to
// completion through the regular jump table and PP program, so directory
// state, the MDC, processor caches, and memory values evolve exactly as the
// protocol dictates — only the timing (PP occupancy, queue contention,
// memory/bus reservations, network transit) is replaced by fixed charges.
func (m *Magic) drainFF() {
	for m.ctx == nil {
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
	isHome := m.Cfg.HomeOf(msg.Addr) == m.ID
	slot := &m.jt[b2i(viaNet)][b2i(isHome)][msg.Type]
	if !slot.ok {
		panic(fmt.Sprintf("magic%d: no handler for %s (viaNet=%v isHome=%v)", m.ID, msg.Type, viaNet, isHome))
	}
	dispatch := at + sim.Cycle(m.T.InboxSelect) + sim.Cycle(m.T.JumpTable)
	ctx := &m.hctx
	*ctx = handlerCtx{msg: msg, entry: slot.entry, pc: slot.pc, agg: slot.agg, viaNet: viaNet, ff: true, dispatched: dispatch, segStart: dispatch}
	if msg.Type.CarriesData() {
		ctx.hasData = true
		ctx.dataReady = dispatch
	}
	m.ctx = ctx
	m.Stats.Dispatches++
	m.Stats.FFDispatches++

	pp := m.PP
	pp.InHeader(ppisa.HdrType, uint64(msg.Type))
	pp.InHeader(ppisa.HdrAddr, uint64(msg.Addr))
	pp.InHeader(ppisa.HdrSrc, uint64(msg.Src))
	pp.InHeader(ppisa.HdrReq, uint64(msg.Req))
	pp.InHeader(ppisa.HdrAux, uint64(msg.Aux))
	pp.InHeader(ppisa.HdrSelf, uint64(m.ID))
	if isHome {
		pp.InHeader(ppisa.HdrDirOff, m.Prog.Layout.DirOffset(m.Cfg.LocalLine(msg.Addr)))
	} else {
		pp.InHeader(ppisa.HdrDirOff, uint64(m.Cfg.HomeOf(msg.Addr)))
	}

	st, _ := pp.StartAt(ctx.pc)
	for i := 0; st != ppsim.StatusDone; i++ {
		if i > 1<<16 {
			panic(fmt.Sprintf("magic%d: functional handler %s did not converge (status %v)", m.ID, ctx.entry, st))
		}
		st, _ = pp.Resume()
	}
	// Census only: invocation counts stay exact, timing aggregates
	// (occupancy, service-time histograms) see no functional handlers.
	ctx.agg.Count++
	m.ctx = nil
}

// startHandler is the dispatch event: the inbox's selection and jump-table
// stages are over and the PP begins the handler tryDispatch claimed it for.
func (m *Magic) startHandler() {
	m.dispatchScheduled = false
	ctx := m.ctx
	m.Stats.Dispatches++
	if m.Tr.Active() {
		// The invocation's id is minted at dispatch; the span itself is
		// emitted at completion, when the duration is known.
		ctx.tid = m.Tr.NewID()
	}

	// Inbox header preprocessing.
	pp := m.PP
	pp.InHeader(ppisa.HdrType, uint64(ctx.msg.Type))
	pp.InHeader(ppisa.HdrAddr, uint64(ctx.msg.Addr))
	pp.InHeader(ppisa.HdrSrc, uint64(ctx.msg.Src))
	pp.InHeader(ppisa.HdrReq, uint64(ctx.msg.Req))
	pp.InHeader(ppisa.HdrAux, uint64(ctx.msg.Aux))
	pp.InHeader(ppisa.HdrSelf, uint64(m.ID))
	if m.Cfg.HomeOf(ctx.msg.Addr) == m.ID {
		pp.InHeader(ppisa.HdrDirOff, m.Prog.Layout.DirOffset(m.Cfg.LocalLine(ctx.msg.Addr)))
	} else {
		pp.InHeader(ppisa.HdrDirOff, uint64(m.Cfg.HomeOf(ctx.msg.Addr)))
	}

	ctx.segStart = ctx.dispatched
	st, cyc := pp.StartAt(ctx.pc)
	m.handleStatus(st, cyc)
}

// handleStatus advances MAGIC state after a PP run segment.
func (m *Magic) handleStatus(st ppsim.Status, cyc uint64) {
	ctx := m.ctx
	end := ctx.segStart + sim.Cycle(cyc)*m.ppDiv
	switch st {
	case ppsim.StatusDone:
		if ctx.dispatched < m.lastEnd {
			panic(fmt.Sprintf("magic%d: handler %s dispatched at %d overlaps previous end %d",
				m.ID, ctx.entry, ctx.dispatched, m.lastEnd))
		}
		m.lastEnd = end
		occ := end - ctx.dispatched
		m.PPOcc.AddBusy(occ)
		m.PPSeries.Add(uint64(ctx.dispatched), uint64(occ))
		ctx.agg.Cycles += occ
		ctx.agg.Count++
		ctx.agg.Lat.Observe(uint64(occ))
		if m.Tr.Active() {
			m.Tr.Emit(trace.Event{
				Cycle: uint64(ctx.dispatched), Dur: uint64(occ), Node: int32(m.ID),
				Kind: trace.KindHandler, Addr: uint64(ctx.msg.Addr),
				ID: ctx.tid, Parent: ctx.msg.TID, Name: ctx.entry,
			})
		}
		if ctx.specIssued && (!ctx.specUsed || ctx.intervened) {
			m.Mem.MarkUseless()
		}
		if ctx.hasData || ctx.specIssued {
			m.freeBuf()
		}
		// The PP stays claimed until the handler's last cycle retires; the
		// run segment executed synchronously ahead of the clock.
		m.Eng.At(end, m.retireFn)

	case ppsim.StatusBlockedSend:
		ctx.blockedAt = end
		// The waker (an injection/delivery completion event) resumes us.
		// If capacity already freed between the failed TrySend and now,
		// wake immediately.
		if ctx.blockedNet && m.outNet < m.netQCap {
			m.wake(end)
		} else if ctx.blockedPI && m.outPI < piOutCap {
			m.wake(end)
		}

	case ppsim.StatusWaitPC:
		ctx.blockedAt = end
		if ctx.pcDone {
			ctx.pcDone = false
			m.wake(end)
		} else {
			ctx.waitingPC = true
			// The intervention completion callback resumes us.
		}
	}
}

// retire is a handler's last cycle: the PP frees and the inbox arbitrates.
func (m *Magic) retire() {
	m.ctx = nil
	m.tryDispatch()
}

// wake resumes a blocked PP at time t (>= the block time).
func (m *Magic) wake(t sim.Cycle) {
	ctx := m.ctx
	if ctx == nil || ctx.pendingWake {
		return
	}
	ctx.pendingWake = true
	if t < ctx.blockedAt {
		t = ctx.blockedAt
	}
	m.Eng.At(t, m.wakeFn)
}

// resumePP is the wake event. The handler it resumes is still the one that
// blocked: a blocked handler cannot retire, and pendingWake admits one wake.
func (m *Magic) resumePP() {
	ctx := m.ctx
	ctx.pendingWake = false
	ctx.blockedNet, ctx.blockedPI, ctx.waitingPC = false, false, false
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

func (m *Magic) allocBuf() {
	m.bufs++
	if m.bufs > m.Stats.BufHigh {
		m.Stats.BufHigh = m.bufs
	}
	if m.bufs > m.dataBufCap {
		m.Stats.BufOverflow++
	}
}

func (m *Magic) freeBuf() {
	if m.bufs > 0 {
		m.bufs--
	}
}

// ppEnv adapts Magic to the ppsim.Env interface.
type ppEnv Magic

func (e *ppEnv) magic() *Magic { return (*Magic)(e) }

// TrySend launches an outgoing message composed by the handler.
func (e *ppEnv) TrySend(h ppsim.OutHeader, dt uint64) bool {
	m := e.magic()
	ctx := m.ctx
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
	ctx := m.ctx
	mt := arch.MsgType(h.Type)
	if h.Iface == ppisa.SendPI {
		switch mt {
		case arch.MsgPIInval, arch.MsgPIDowngr, arch.MsgPIFlush:
			m.Stats.Interventions++
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
		m.Stats.PISends++
		at := ctx.dispatched + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.PIOutbound) + sim.Cycle(m.T.PIBusWord)
		// Synchronous delivery: if this resumes the processor and it issues
		// a new miss, the re-entrant request queues (the PP is busy with
		// this handler) and drains when we finish.
		m.CPU.DeliverFF(m.msgFrom(h), at)
		return true
	}
	m.Stats.NetSends++
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
	m.Stats.Interventions++
	at := tSend + sim.Cycle(m.T.OutboxOut) + sim.Cycle(m.T.PIOutbound)
	done := m.pcDoneFn
	if mt == arch.MsgPIInval {
		done = nil
	}
	m.CPU.Intervene(mt, addr, at, m.ctx.msg, done)
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
	ctx := m.ctx
	if resp == arch.MsgPCData {
		m.PP.SetPCResponse(1)
		if !ctx.hasData && !ctx.specIssued {
			m.allocBuf()
		}
		ctx.hasData = true
		ctx.intervened = true
		ctx.dataReady = firstData + 1
	} else {
		m.PP.SetPCResponse(0)
	}
	if ctx.waitingPC {
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
		m.ctx.blockedPI = true
		m.Stats.PIBlocks++
		return false
	}
	m.outPI++
	m.Stats.PISends++
	ctx := m.ctx
	hdrReady := tSend + sim.Cycle(m.T.OutboxOut)
	var deliver sim.Cycle
	if h.Data {
		if ctx.specIssued && !ctx.intervened {
			ctx.specUsed = true
		}
		deliver = hdrReady + sim.Cycle(m.T.PIOutbound)
		if ctx.dataReady > deliver {
			deliver = ctx.dataReady
		}
		deliver += sim.Cycle(m.T.PIBusWord)
	} else {
		deliver = hdrReady + sim.Cycle(m.T.PIOutbound) + sim.Cycle(m.T.PIBusWord)
	}
	m.Eng.At(deliver, m.Evs.Get(m.onToPI, m.msgFrom(h)).Fire)
	return true
}

// deliverPI is a reply's first word crossing the bus to the processor: the
// outgoing PI slot frees (waking a handler stalled on it) and the miss
// completes.
func (m *Magic) deliverPI(ev *arch.MsgEvent) {
	m.outPI--
	if m.ctx != nil && m.ctx.blockedPI {
		m.wake(m.Eng.Now())
	}
	m.CPU.Deliver(m.Evs.Take(ev), m.Eng.Now())
}

// sendToNet injects a message into the interconnect through the outgoing
// network queue (capacity 16) and the NI outbound stage.
func (m *Magic) sendToNet(h ppsim.OutHeader, tSend sim.Cycle) bool {
	if m.outNet >= m.netQCap {
		m.ctx.blockedNet = true
		m.Stats.NetBlocks++
		return false
	}
	m.outNet++
	m.Stats.NetSends++
	ctx := m.ctx
	hdrReady := tSend + sim.Cycle(m.T.OutboxOut)
	inject := hdrReady
	if h.Data {
		if ctx.specIssued && !ctx.intervened {
			ctx.specUsed = true
		}
		if ctx.dataReady > inject {
			inject = ctx.dataReady
		}
	}
	inject += sim.Cycle(m.T.NIOutbound)
	m.Eng.At(inject, m.Evs.Get(m.onToNet, m.msgFrom(h)).Fire)
	return true
}

// injectNet is a message leaving the NI outbound stage: its slot in the
// outgoing network queue frees (waking a handler stalled on it).
func (m *Magic) injectNet(ev *arch.MsgEvent) {
	m.outNet--
	if m.ctx != nil && m.ctx.blockedNet {
		m.wake(m.Eng.Now())
	}
	m.Net.Send(m.Eng.Now(), m.Evs.Take(ev))
}

func (m *Magic) msgFrom(h ppsim.OutHeader) arch.Msg {
	db := int16(-1)
	if h.Data {
		db = 0
	}
	var tid uint64
	if m.ctx != nil {
		tid = m.ctx.tid // causal parent: the composing handler invocation
	}
	return arch.Msg{
		Type: arch.MsgType(h.Type),
		Addr: arch.Addr(h.Addr),
		Src:  m.ID,
		Dst:  arch.NodeID(h.Dst),
		Req:  arch.NodeID(h.Req),
		Aux:  uint32(h.Aux),
		DB:   db,
		TID:  tid,
	}
}

// MemRead handles a handler-initiated memory read. When the inbox already
// issued the speculative read for this message the two coalesce.
func (e *ppEnv) MemRead(addr uint64, dt uint64) {
	m := e.magic()
	ctx := m.ctx
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
	if !ctx.hasData {
		m.allocBuf()
		ctx.hasData = true
	}
	ctx.dataReady = fw + 1
}

// MemWrite writes the handler's data buffer back to memory (posted).
func (e *ppEnv) MemWrite(addr uint64, dt uint64) {
	m := e.magic()
	if m.ctx.ff {
		return
	}
	m.Mem.Write(m.ctx.segStart + sim.Cycle(dt)*m.ppDiv)
}

// MDCFill services a MAGIC data cache miss: a full-line read from local
// memory (plus a posted writeback of the victim when dirty). The returned
// stall covers queueing plus the 29-cycle line access.
func (e *ppEnv) MDCFill(addr uint64, writeback bool, dt uint64) uint64 {
	m := e.magic()
	if m.ctx == nil || m.ctx.ff {
		// Boot-time fill (pp_init) or a functional handler: the MDC tag
		// state already updated inside ppsim; charge the flat miss penalty
		// with no memory reservation. The penalty is system cycles; the PP
		// counts its own (possibly slower) cycles, so divide rounding up.
		return uint64((m.T.MDCMiss + uint32(m.ppDiv) - 1) / uint32(m.ppDiv))
	}
	t := m.ctx.segStart + sim.Cycle(dt)*m.ppDiv
	_, done := m.Mem.Read(t)
	if writeback {
		m.Mem.Write(done)
	}
	// The memory stall elapsed in system cycles; the PP charges it in PP
	// cycles, rounding up so the handler never resumes before the data.
	return uint64((done - t + m.ppDiv - 1) / m.ppDiv)
}

// MagicState is the deterministic simulation state of one quiesced
// controller: protocol processor (registers + protocol memory, which holds
// the directory), MDC contents, occupancy and statistics. Queues must be
// empty and the PP idle — Machine.Snapshot drains the engine first.
type MagicState struct {
	PP       ppsim.PPState
	MDC      ppsim.MDCState
	PPOcc    sim.OccupancyMeter
	Stats    Stats
	LastEnd  sim.Cycle
	RRPI     bool
	Handlers map[string]HandlerStat
}

// CaptureState snapshots a quiesced controller. It panics if a handler is
// in flight, any inbox queue is nonempty, or outbound slots / data buffers
// are in use: such a machine has pending events and is not at a snapshot
// point.
func (m *Magic) CaptureState() MagicState {
	if m.ctx != nil || m.dispatchScheduled || !m.queuesEmpty() ||
		m.outNet != 0 || m.outPI != 0 || m.bufs != 0 {
		panic(fmt.Sprintf("magic%d: CaptureState before quiescence: %s", m.ID, m.DebugState()))
	}
	st := MagicState{
		PP:       m.PP.CaptureState(),
		MDC:      m.PP.MDC.CaptureState(),
		PPOcc:    m.PPOcc,
		Stats:    m.Stats,
		LastEnd:  m.lastEnd,
		RRPI:     m.rrPI,
		Handlers: make(map[string]HandlerStat, len(m.handlers)),
	}
	for name, agg := range m.handlers {
		st.Handlers[name] = *agg
	}
	return st
}

// RestoreState installs a captured state into a controller built for the
// same protocol program and configuration.
func (m *Magic) RestoreState(st MagicState) {
	m.PP.RestoreState(st.PP)
	m.PP.MDC.RestoreState(st.MDC)
	m.PPOcc = st.PPOcc
	m.Stats = st.Stats
	m.lastEnd = st.LastEnd
	m.rrPI = st.RRPI
	for name, agg := range m.handlers {
		*agg = st.Handlers[name] // zero value for never-invoked handlers
	}
	m.resetQueues()
}

// resetQueues empties the inbox queues and the outbound/buffer accounting
// and idles the PP; queue storage and pooled events are kept.
func (m *Magic) resetQueues() {
	m.qPI.reset()
	m.qNetReq.reset()
	m.qNetRpl.reset()
	m.outNet, m.outPI, m.bufs = 0, 0, 0
	m.ctx = nil
	m.dispatchScheduled = false
}

// Reset returns the controller to its freshly constructed-and-attached
// state: protocol memory reinitialized and pp_init re-run, MDC and all
// statistics cleared. The interned jump table and handler map survive.
func (m *Magic) Reset() {
	m.PP.Reset()
	m.PP.MDC.Reset()
	m.Prog.Layout.InitMemory(m.PP.Mem, m.ID, m.Cfg.NodeBase(m.ID), m.Cfg.Nodes)
	if st, _ := m.PP.Start("pp_init"); st != ppsim.StatusDone {
		panic("magic: pp_init did not complete")
	}
	m.PPOcc = sim.OccupancyMeter{}
	m.Stats = Stats{}
	for _, agg := range m.handlers {
		*agg = HandlerStat{}
	}
	m.resetQueues()
	m.rrPI = false
	m.lastEnd = 0
}

// DebugState renders the controller's queue/handler state for hang diagnosis.
func (m *Magic) DebugState() string {
	s := fmt.Sprintf("ctx=%v qPI=%d qNetReq=%d qNetRpl=%d outPI=%d outNet=%d", m.ctx != nil, m.qPI.n, m.qNetReq.n, m.qNetRpl.n, m.outPI, m.outNet)
	for _, nq := range []struct {
		name string
		q    *inbox
	}{{"PI", &m.qPI}, {"NReq", &m.qNetReq}, {"NRpl", &m.qNetRpl}} {
		for i := 0; i < nq.q.n; i++ {
			msg := nq.q.at(i).msg
			s += fmt.Sprintf(" %s{%v %#x src=%d}", nq.name, msg.Type, msg.Addr, msg.Src)
		}
	}
	return s
}
