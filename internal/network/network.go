// Package network models the FLASH interconnect: a two-dimensional mesh
// abstracted, as in the paper, by a fixed average transit latency per
// message (22 cycles for 16 processors: one hop to enter and exit, 2.6 hops
// of transit at 40 ns fall-through, and 3 cycles of header), or — with a
// Mesh installed — by each pair's exact hop-count transit. Requests and
// replies travel on separate virtual networks so that replies can always
// make progress.
//
// Each node sends through its own Port. Ports are the only cross-node edge
// in the simulator: a send turns into a Scheduler.DeliverSettled on the
// source node's shard, keyed by (source, per-port send sequence), which is
// what makes delivery order — and therefore the whole simulation —
// deterministic under the parallel engine; a destination's fixed NI inbound
// stage (NISink) rides in the same event. Message counters live on the port
// (single writer: the owning node's events) and are summed on demand.
package network

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Sink receives messages delivered to a node.
type Sink interface {
	// FromNet delivers m to the node past its NI inbound stage (NISink).
	// The callee owns any further queueing; a full inbound queue backs
	// messages up into (unbounded) network buffering on the callee side,
	// exactly as Table 3.1 specifies.
	FromNet(m arch.Msg)
}

// NISink is a Sink whose network interface holds every message NIInbound()
// cycles (arch.Timing.NIInbound) between its arrival and FromNet, in the
// same event. A plain Sink receives each message at its arrival.
type NISink interface {
	Sink
	NIInbound() sim.Cycle
}

// Network delivers messages between nodes after a fixed transit latency, or
// — when a Mesh is installed — after the mesh's per-pair transit.
type Network struct {
	transit sim.Cycle
	mesh    *Mesh // nil = uniform transit
	sinks   []Sink
	ports   []*Port
}

// Port is node src's injection point into the network.
type Port struct {
	PortState

	net     *Network
	src     arch.NodeID
	sched   sim.Scheduler
	inbound sim.Cycle // node src's NI inbound stage (NISink)

	// Tr, when non-nil, receives the send event of each message this port
	// sends and the recv event, stamped with the arrival cycle, of each
	// message it delivers (the delivery runs on the destination's shard).
	// Injected per machine (core.Machine.SetTracer).
	Tr *trace.Tracer

	// Evs recycles the delivery events of the messages this port sends
	// (see Send); arrive is what they fire, on the destination port: it
	// emits the recv event when tracing and hands the message to the sink.
	Evs    arch.MsgEventFIFO
	arrive func(*arch.MsgEvent)
}

// New creates a network for n nodes with the given transit latency.
func New(n int, transit sim.Cycle) *Network {
	nw := &Network{
		transit: transit,
		sinks:   make([]Sink, n),
		ports:   make([]*Port, n),
	}
	for i := range nw.ports {
		p := &Port{net: nw, src: arch.NodeID(i)}
		p.arrive = func(ev *arch.MsgEvent) {
			if m := &ev.Msg; p.Tr.Active() {
				p.Tr.Emit(trace.Event{
					Cycle: uint64(p.sched.Now() - p.inbound), Node: int32(m.Dst), Kind: trace.KindMsgRecv,
					Addr: uint64(m.Addr), ID: m.TID, Name: m.Type.String(),
				})
			}
			nw.sinks[p.src].FromNet(ev.Msg)
		}
		nw.ports[i] = p
	}
	return nw
}

// Attach registers the sink for node id, and its NI inbound stage if it is
// an NISink.
func (n *Network) Attach(id arch.NodeID, s Sink) {
	n.sinks[id] = s
	if ni, ok := s.(NISink); ok {
		n.ports[id].inbound = ni.NIInbound()
	}
}

// Port returns node id's port, binding it to sched on first use.
func (n *Network) Port(id arch.NodeID, sched sim.Scheduler) *Port {
	p := n.ports[id]
	if p.sched == nil {
		p.sched = sched
	}
	return p
}

// SetMesh installs per-pair mesh transit (nil restores the uniform
// latency). The engine's lookahead must then be m.MinPairTransit(), which
// every pair's transit meets or exceeds.
func (n *Network) SetMesh(m *Mesh) { n.mesh = m }

// TransitFor returns the transit latency charged from src to dst.
func (n *Network) TransitFor(src, dst arch.NodeID) sim.Cycle {
	if n.mesh != nil {
		return n.mesh.MinTransit(int(src), int(dst))
	}
	return n.transit
}

// TotalMsgs sums messages sent across all ports.
func (n *Network) TotalMsgs() uint64 { return n.total(func(p *Port) uint64 { return p.Msgs }) }

// TotalDataMsgs sums data-carrying messages sent across all ports.
func (n *Network) TotalDataMsgs() uint64 { return n.total(func(p *Port) uint64 { return p.DataMsgs }) }

// TotalReplyMsgs sums reply messages sent across all ports.
func (n *Network) TotalReplyMsgs() uint64 {
	return n.total(func(p *Port) uint64 { return p.ReplyMsgs })
}

func (n *Network) total(f func(*Port) uint64) uint64 {
	var t uint64
	for _, p := range n.ports {
		t += f(p)
	}
	return t
}

// PortState is a port's simulated state, listed once: Port embeds it,
// CaptureState copies it and RestoreState installs it (the zero PortState
// is a fresh port). The send sequence keys delivery order, so a restored
// port must continue it exactly.
type PortState struct {
	seq uint64 // monotonic send sequence; orders this port's deliveries

	// Stats. Single-writer: only the owning node's events send.
	Msgs      uint64
	DataMsgs  uint64
	ReplyMsgs uint64
}

// CaptureState returns a copy of the port's simulated state.
func (p *Port) CaptureState() PortState { return p.PortState }

// RestoreState installs st.
func (p *Port) RestoreState(st PortState) { p.PortState = st }

// Send injects m at time `at` (which must be >= the owning node's current
// time); m.Dst's sink gets it after the transit and its inbound stage.
func (p *Port) Send(at sim.Cycle, m arch.Msg) {
	n := p.net
	p.Msgs++
	if m.Type.CarriesData() {
		p.DataMsgs++
	}
	if m.Type.IsReply() {
		p.ReplyMsgs++
	}
	if n.sinks[m.Dst] == nil {
		panic(fmt.Sprintf("network: send %s to unattached node %d", m.Type, m.Dst))
	}
	arrive := at + n.transit
	if n.mesh != nil {
		arrive = at + n.mesh.MinTransit(int(p.src), int(m.Dst))
	}
	p.seq++
	if p.Tr.Active() {
		// Each hop gets its own id, parented on the producing context, and
		// becomes the causal parent of whatever its delivery triggers.
		id := p.Tr.NewID()
		p.Tr.Emit(trace.Event{
			Cycle: uint64(at), Node: int32(m.Src), Kind: trace.KindMsgSend,
			Addr: uint64(m.Addr), Arg: uint64(m.Dst), ID: id, Parent: m.TID,
			Name: m.Type.String(),
		})
		m.TID = id
	}
	// The delivery event stays this port's: the destination reads the
	// message out of it and the port re-arms it once its own clock is a
	// reverse transit past the delivery (arrival plus the inbound stage).
	// By then it has fired under every engine: the sequential one has a
	// single clock, and the conservative parallel one never lets a node run
	// a lookahead or more ahead of an event pending at a peer (that event
	// could still send back) — the lookahead being at most the transit
	// charged from the destination. The barrier or scheduler lock that let
	// this node's clock get there also orders the destination's read before
	// the re-arm.
	dst := n.ports[m.Dst]
	free := arrive + dst.inbound + n.TransitFor(m.Dst, p.src)
	ev := p.Evs.Get(uint64(p.sched.Now()), uint64(free), dst.arrive, m)
	p.sched.DeliverSettled(arrive, dst.inbound, int(p.src), int(m.Dst), p.seq, ev.Fire)
}

// AvgTransitFor returns the paper's average transit estimate for a p-node
// 2-D mesh: one hop in, one hop out, the average internal hop count of a
// sqrt(p) x sqrt(p) mesh at 4 cycles (40 ns) per hop, plus 3 header cycles.
func AvgTransitFor(p int) sim.Cycle {
	// Average Manhattan distance on a k x k mesh is ~2k/3 hops.
	k := meshSide(p)
	internal := 2.0 * float64(k) / 3.0
	cycles := (1.0+internal+1.0)*4.0 + 3.0
	return sim.Cycle(cycles + 0.5)
}

// meshSide returns the side of the smallest square mesh holding p nodes.
func meshSide(p int) int {
	k := 1
	for k*k < p {
		k++
	}
	return k
}

// Mesh is the explicit 2-D mesh latency model behind AvgTransitFor's
// average: nodes laid out row-major on the smallest k x k grid, transit from
// src to dst = (1 hop in + Manhattan hops + 1 hop out) * 4 cycles + 3 header
// cycles. It is a timing model only: the sharded engine synchronizes every
// pair at the closest pair's transit, MinPairTransit.
type Mesh struct {
	k int
}

// NewMesh returns the mesh model for n nodes.
func NewMesh(n int) *Mesh { return &Mesh{k: meshSide(n)} }

// MinTransit returns the exact transit from src to dst; the model is
// contention-free, so the minimum is also the actual latency.
func (m *Mesh) MinTransit(src, dst int) sim.Cycle {
	sx, sy := src%m.k, src/m.k
	dx, dy := dst%m.k, dst/m.k
	hops := sx - dx
	if hops < 0 {
		hops = -hops
	}
	if dyh := sy - dy; dyh >= 0 {
		hops += dyh
	} else {
		hops -= dyh
	}
	return sim.Cycle((1+hops+1)*4 + 3)
}

// MinPairTransit returns the smallest cross-node transit — the lookahead
// window and store-visibility quantum equivalent of the uniform model's
// fixed latency.
func (m *Mesh) MinPairTransit() sim.Cycle {
	if m.k < 2 {
		return m.MinTransit(0, 0)
	}
	return m.MinTransit(0, 1)
}
