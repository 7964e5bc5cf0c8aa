// Package ideal implements the paper's idealized hardwired node controller:
// every protocol operation completes in zero time, the directory is an
// instantaneous oracle, and all queues are infinite. The only delays are
// data transit and arbitration (Table 3.2's ideal column) plus contention
// for the shared resources both machines model: memory, processor bus, and
// network. It implements the same directory protocol as the FLASH
// handlers — NAK/retry races, 3-hop forwarding, sharing writebacks,
// invalidation acknowledgments — as a second, Go copy, and no test
// compares the two message for message. What is tested: this package's
// scripted two-node runs (local read latency, remote ownership,
// invalidation, 3-hop read) and its sharer-list order; the ideal column of
// Table 3.3 and the engine events of each probe read (core); every app
// verifying its result on the ideal machine and passing the coherence
// audit, the same audit FLASH passes; and the ideal legs' cycle counts,
// pinned by the experiment outputs.
//
// dir.go stores the oracle directory in pages of packed entries.
package ideal

import (
	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Controller is one node's idealized controller.
type Controller struct {
	ID  arch.NodeID
	Eng sim.Scheduler
	Cfg *arch.Config
	T   arch.Timing

	Mem *memsys.Memory
	CPU *cpu.CPU
	Net *network.Port

	// Tr, when non-nil, receives a handler event per message processed.
	// Injected per machine (core.Machine.SetTracer), replacing the old
	// race-prone package-global printf hook.
	Tr *trace.Tracer

	ControllerState

	// Evs recycles this node's message events; the two handlers are what
	// they fire (a processor-side arrival, a reply crossing the bus to the
	// processor), built once — as are the two continuations of a data
	// intervention, which get their request back from the processor instead
	// of capturing it.
	Evs               arch.MsgEventPool
	onProc, onDeliver func(*arch.MsgEvent)
	homeDone, fwdDone cpu.InterventionDone
}

// ControllerState is the controller's simulated state, listed once; the
// zero ControllerState is a freshly constructed controller, with an empty
// oracle directory and sharer pool.
type ControllerState struct {
	dir directory

	// curTID is the trace id of the handler event currently executing, used
	// to stamp outgoing messages. Best-effort for sends made from deferred
	// intervention callbacks, which run after handle returns.
	curTID uint64
}

// New builds an idealized controller; call Attach to wire the CPU.
func New(id arch.NodeID, eng sim.Scheduler, cfg *arch.Config, mem *memsys.Memory, net *network.Port) *Controller {
	c := &Controller{
		ID: id, Eng: eng, Cfg: cfg, T: cfg.Timing,
		Mem: mem, Net: net,
	}
	c.onProc = func(ev *arch.MsgEvent) { c.handle(c.Evs.Take(ev), false) }
	c.onDeliver = func(ev *arch.MsgEvent) { c.CPU.Deliver(c.Evs.Take(ev), c.Eng.Now()) }
	c.homeDone, c.fwdDone = c.retrieved, c.forwarded
	return c
}

// Attach wires the processor.
func (c *Controller) Attach(p *cpu.CPU) { c.CPU = p }

// RestoreState installs st.
func (c *Controller) RestoreState(st ControllerState) { c.ControllerState = st }

// dirEntry returns the live directory entry of a, a line homed here.
func (c *Controller) dirEntry(a arch.Addr) *entry { return c.dir.at(c.Cfg.LocalLine(a)) }

// FromProc receives a processor-side message (cpu.Ctl).
func (c *Controller) FromProc(m arch.Msg, at sim.Cycle) {
	c.Eng.At(at+sim.Cycle(c.T.PIInbound), c.Evs.Get(c.onProc, m).Fire)
}

// FromProcFF satisfies cpu.Ctl; never reached on ideal machines (core
// forces sampling off — the ideal protocol already runs in zero time).
func (c *Controller) FromProcFF(m arch.Msg, at sim.Cycle) {
	panic("ideal: FromProcFF on a machine with sampling disabled")
}

// NIInbound is the NI inbound stage ahead of FromNet (network.NISink).
func (c *Controller) NIInbound() sim.Cycle { return sim.Cycle(c.T.NIInbound) }

// FromNet receives a network message past the NI inbound stage
// (network.Sink).
func (c *Controller) FromNet(m arch.Msg) { c.handle(m, true) }

// --- send helpers (all timed from r, the processing instant) ---

// toNet injects a message; data-carrying messages wait for firstData.
func (c *Controller) toNet(r sim.Cycle, m arch.Msg, firstData sim.Cycle) {
	if m.TID == 0 {
		m.TID = c.curTID
	}
	inject := r
	if firstData > inject {
		inject = firstData
	}
	inject += sim.Cycle(c.T.NIOutbound)
	c.Net.Send(inject, m)
}

// toProc delivers a reply to the local processor.
func (c *Controller) toProc(r sim.Cycle, m arch.Msg, firstData sim.Cycle) {
	if m.TID == 0 {
		m.TID = c.curTID
	}
	deliver := r
	if firstData > deliver {
		deliver = firstData
	}
	deliver += sim.Cycle(c.T.PIOutbound) + sim.Cycle(c.T.PIBusWord)
	c.Eng.At(deliver, c.Evs.Get(c.onDeliver, m).Fire)
}

// nak bounces a request back to its origin.
func (c *Controller) nak(r sim.Cycle, m arch.Msg, viaNet bool) {
	n := arch.Msg{Type: arch.MsgNAK, Addr: m.Addr, Src: c.ID, Dst: m.Src, Req: m.Req, DB: -1}
	if viaNet {
		c.toNet(r, n, 0)
	} else {
		c.toProc(r, n, 0)
	}
}

// reply sends a data reply to the requester, locally or across the mesh.
func (c *Controller) reply(r sim.Cycle, t arch.MsgType, m arch.Msg, aux uint32, firstData sim.Cycle, viaNet bool) {
	n := arch.Msg{Type: t, Addr: m.Addr, Src: c.ID, Dst: m.Src, Req: m.Req, Aux: aux, DB: 0}
	if viaNet {
		c.toNet(r, n, firstData)
	} else {
		c.toProc(r, n, firstData)
	}
}

// handle processes one message in zero time at the current instant.
func (c *Controller) handle(m arch.Msg, viaNet bool) {
	r := c.Eng.Now()
	isHome := c.Cfg.HomeOf(m.Addr) == c.ID
	c.curTID = 0
	if c.Tr.Active() {
		c.curTID = c.Tr.NewID()
		c.Tr.Emit(trace.Event{
			Cycle: uint64(r), Node: int32(c.ID), Kind: trace.KindHandler,
			Addr: uint64(m.Addr), ID: c.curTID, Parent: m.TID,
			Name: m.Type.String(),
		})
	}

	// Processor-side requests for remote addresses forward to the home.
	if !viaNet && !isHome {
		switch m.Type {
		case arch.MsgGET, arch.MsgGETX, arch.MsgWB, arch.MsgRPL:
			fwd := m
			fwd.Dst = c.Cfg.HomeOf(m.Addr)
			data := sim.Cycle(0)
			if m.Type == arch.MsgWB {
				data = r
			}
			c.toNet(r, fwd, data)
			return
		}
	}

	switch m.Type {
	case arch.MsgGET:
		c.get(r, m, viaNet)
	case arch.MsgGETX:
		c.getx(r, m, viaNet)
	case arch.MsgWB:
		c.writeback(r, m)
	case arch.MsgRPL:
		e := c.dirEntry(m.Addr)
		c.dir.removeSharer(e, m.Src)
		if !viaNet {
			e.set(entLocal, false)
		}
	case arch.MsgFwdGET:
		c.fwdGet(r, m, false)
	case arch.MsgFwdGETX:
		c.fwdGet(r, m, true)
	case arch.MsgINVAL:
		c.CPU.Intervene(arch.MsgPIInval, m.Addr, r, m, nil)
		c.toNet(r, arch.Msg{Type: arch.MsgIACK, Addr: m.Addr, Src: c.ID, Dst: m.Src, DB: -1}, 0)
	case arch.MsgPUT, arch.MsgPUTX, arch.MsgNAK:
		// Replies arriving at the requester: hand to the processor.
		data := sim.Cycle(0)
		if m.Type != arch.MsgNAK {
			data = r
		}
		c.toProc(r, m, data)
	case arch.MsgSWB:
		c.Mem.Write(r)
		e := c.dirEntry(m.Addr)
		if e.dirtyAt(m.Src) {
			e.set(entDirty|entPending, false)
			c.noteSharer(e, m.Src)
			c.noteSharer(e, m.Req)
		}
	case arch.MsgXFER:
		e := c.dirEntry(m.Addr)
		if e.dirtyAt(m.Src) {
			e.setOwner(m.Req)
			e.set(entPending, false)
		}
	case arch.MsgPCLR:
		e := c.dirEntry(m.Addr)
		if e.dirtyAt(m.Src) {
			e.set(entPending, false)
		}
	case arch.MsgIACK:
		e := c.dirEntry(m.Addr)
		if n := e.acks(); n > 1 {
			e.setAcks(n - 1)
		} else {
			e.setAcks(0)
			e.set(entPending, false)
		}
	default:
		panic("ideal: unexpected message " + m.Type.String())
	}
}

func (c *Controller) noteSharer(e *entry, n arch.NodeID) {
	if n == c.ID {
		e.set(entLocal, true)
	} else {
		c.dir.addSharer(e, n)
	}
}

// get serves a read request at the home node.
func (c *Controller) get(r sim.Cycle, m arch.Msg, viaNet bool) {
	e := c.dirEntry(m.Addr)
	switch {
	case e.has(entPending):
		c.nak(r, m, viaNet)
	case e.dirtyAt(c.ID):
		// Dirty in our own processor cache: retrieve and downgrade. Pending
		// guards the window (the flexible machine's PP serializes this
		// naturally; the oracle must do it explicitly).
		e.set(entPending, true)
		c.CPU.Intervene(arch.MsgPIDowngr, m.Addr, r+sim.Cycle(c.T.PIOutbound), m, c.homeDone)
	case e.has(entDirty):
		if e.owner() == m.Src {
			c.nak(r, m, viaNet) // requester's own writeback is in flight
			return
		}
		e.set(entPending, true)
		c.toNet(r, arch.Msg{Type: arch.MsgFwdGET, Addr: m.Addr, Src: c.ID, Dst: e.owner(), Req: m.Src, DB: -1}, 0)
	default:
		c.noteSharer(e, m.Src)
		fw, _ := c.Mem.Read(r)
		c.reply(r, arch.MsgPUT, m, 0, fw, viaNet)
	}
}

// getx serves a write (read-exclusive) request at the home node.
func (c *Controller) getx(r sim.Cycle, m arch.Msg, viaNet bool) {
	e := c.dirEntry(m.Addr)
	switch {
	case e.has(entPending):
		c.nak(r, m, viaNet)
	case e.dirtyAt(c.ID) && m.Src == c.ID:
		c.nak(r, m, viaNet) // our writeback is in flight
	case e.dirtyAt(c.ID):
		e.set(entPending, true)
		c.CPU.Intervene(arch.MsgPIFlush, m.Addr, r+sim.Cycle(c.T.PIOutbound), m, c.homeDone)
	case e.has(entDirty):
		if e.owner() == m.Src {
			c.nak(r, m, viaNet)
			return
		}
		e.set(entPending, true)
		c.toNet(r, arch.Msg{Type: arch.MsgFwdGETX, Addr: m.Addr, Src: c.ID, Dst: e.owner(), Req: m.Src, DB: -1}, 0)
	default:
		// Invalidate all sharers except the requester, in the order they
		// were recorded. The zero-occupancy controller issues every
		// invalidation at the same instant.
		acks := 0
		for i := e.head(); i != 0; i = c.dir.cells[i].next {
			s := c.dir.cells[i].node
			if s == m.Src {
				continue
			}
			c.toNet(r, arch.Msg{Type: arch.MsgINVAL, Addr: m.Addr, Src: c.ID, Dst: s, Req: m.Src, DB: -1}, 0)
			acks++
		}
		c.dir.clearSharers(e)
		if e.has(entLocal) && m.Src != c.ID {
			c.CPU.Intervene(arch.MsgPIInval, m.Addr, r, m, nil)
			e.set(entLocal, false)
		}
		if m.Src == c.ID {
			e.set(entLocal, true)
		}
		e.set(entDirty, true)
		e.setOwner(m.Src)
		e.setAcks(acks)
		e.set(entPending, acks > 0)
		fw, _ := c.Mem.Read(r)
		c.reply(r, arch.MsgPUTX, m, 0, fw, viaNet)
	}
}

// retrieved continues a GET or GETX at the home whose line was dirty in the
// home's own processor cache, once the cache has answered. A request served
// at its home came over the network exactly when its source is another node.
func (c *Controller) retrieved(m arch.Msg, resp arch.MsgType, first sim.Cycle) {
	now, e, viaNet := c.Eng.Now(), c.dirEntry(m.Addr), m.Src != c.ID
	e.set(entPending, false)
	if resp != arch.MsgPCData {
		c.nak(now, m, viaNet)
		return
	}
	c.Mem.Write(now)
	if m.Type == arch.MsgGET {
		e.set(entDirty, false)
		e.set(entLocal, true) // our processor keeps the downgraded copy
		c.noteSharer(e, m.Src)
		c.reply(now, arch.MsgPUT, m, 1, first, viaNet)
		return
	}
	e.set(entLocal, false)
	e.setOwner(m.Src)
	c.reply(now, arch.MsgPUTX, m, 1, first, viaNet)
}

// writeback retires dirty data to memory at the home node.
func (c *Controller) writeback(r sim.Cycle, m arch.Msg) {
	c.Mem.Write(r)
	e := c.dirEntry(m.Addr)
	if e.dirtyAt(m.Src) {
		e.set(entDirty, false)
		if m.Src == c.ID {
			e.set(entLocal, false)
		}
		if e.acks() == 0 {
			e.set(entPending, false)
		}
	}
}

// fwdGet handles a forwarded request at the (believed) dirty node; forwarded
// continues it once the processor cache has answered.
func (c *Controller) fwdGet(r sim.Cycle, m arch.Msg, exclusive bool) {
	kind := arch.MsgPIDowngr
	if exclusive {
		kind = arch.MsgPIFlush
	}
	c.CPU.Intervene(kind, m.Addr, r+sim.Cycle(c.T.PIOutbound), m, c.fwdDone)
}

func (c *Controller) forwarded(m arch.Msg, resp arch.MsgType, first sim.Cycle) {
	now, exclusive := c.Eng.Now(), m.Type == arch.MsgFwdGETX
	if resp != arch.MsgPCData {
		// Already written back: clear home's pending, bounce requester.
		c.toNet(now, arch.Msg{Type: arch.MsgPCLR, Addr: m.Addr, Src: c.ID, Dst: m.Src, DB: -1}, 0)
		c.deliverOrSend(now, arch.Msg{Type: arch.MsgNAK, Addr: m.Addr, Src: c.ID, Dst: m.Req, DB: -1}, 0)
		return
	}
	t := arch.MsgPUT
	home := arch.MsgSWB
	if exclusive {
		t, home = arch.MsgPUTX, arch.MsgXFER
	}
	c.deliverOrSend(now, arch.Msg{Type: t, Addr: m.Addr, Src: c.ID, Dst: m.Req, Req: m.Req, Aux: 3, DB: 0}, first)
	homeData := first
	if exclusive {
		homeData = 0 // XFER carries no data
	}
	c.toNet(now, arch.Msg{Type: home, Addr: m.Addr, Src: c.ID, Dst: m.Src, Req: m.Req, DB: -1}, homeData)
}

// deliverOrSend routes a reply to the requester: across the network, or
// straight to our own processor when we are the requester (a local miss
// that was dirty in our cache region's forwarded path).
func (c *Controller) deliverOrSend(r sim.Cycle, m arch.Msg, firstData sim.Cycle) {
	if m.Dst == c.ID {
		c.toProc(r, m, firstData)
		return
	}
	c.toNet(r, m, firstData)
}
