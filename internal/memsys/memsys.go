// Package memsys models one node's main-memory system: a single memory
// controller with a one-request queue and a 14-cycle access time to the
// first 8 bytes (Table 3.2), streaming the remainder of a 128-byte line over
// the 64-bit path. Both FLASH and the ideal machine use this model; the
// paper models memory contention accurately on both.
//
// It also holds the memories' contents. Store is a sparse copy-on-write
// array of 8-byte words that backs the machine-wide data store and each
// node's protocol memory: 4 KiB pages materialized one at a time on first
// write, found through one record per 64 KiB region, and shared page by
// page with frozen snapshot tables. A never-written page reads its pristine
// image — zero, or a fill function that must be a pure function of the
// word index, because a frozen table holds no never-written page and any
// store it is restored into recomputes them. View is one node's
// window-quantized, write-buffering view of the data store.
package memsys

import (
	"flashsim/internal/arch"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Memory is one node's memory controller.
type Memory struct {
	MemoryState

	t    arch.Timing
	node arch.NodeID

	tr *trace.Tracer
}

// MemoryState is the controller's simulated state, listed once: Memory
// embeds it, CaptureState copies it and RestoreState installs it. Server is
// a value type (busy-until time and busy count), so assignment copies it.
type MemoryState struct {
	srv sim.Server

	// Stats.
	Reads       uint64
	Writes      uint64
	SpecReads   uint64 // speculative reads issued by the inbox
	SpecUseless uint64 // speculative reads whose data was not used

	// waitMax is the longest a Read or Write waited for the line accesses
	// booked ahead of it (see BacklogMax).
	waitMax sim.Cycle
}

// New creates a memory controller with the given timing.
func New(t arch.Timing) *Memory {
	return &Memory{t: t}
}

// SetTracer attaches tr (nil detaches) and records the owning node id for
// emitted reservation events.
func (m *Memory) SetTracer(tr *trace.Tracer, node arch.NodeID) {
	m.tr = tr
	m.node = node
}

// observe records one reservation in the event trace.
func (m *Memory) observe(kind trace.Kind, start sim.Cycle) {
	if m.tr.Active() {
		m.tr.Emit(trace.Event{
			Cycle: uint64(start), Dur: uint64(m.t.MemLineBusy),
			Node: int32(m.node), Kind: kind,
		})
	}
}

// Read reserves a full-line read starting no earlier than at. It returns
// when the first 8 bytes are available and when the controller frees.
func (m *Memory) Read(at sim.Cycle) (firstWord, done sim.Cycle) {
	start, end := m.reserve(at)
	m.Reads++
	m.observe(trace.KindMemRead, start)
	return start + sim.Cycle(m.t.MemAccess), end
}

// SpeculativeRead is a Read issued by the inbox before the handler runs
// (Section 5.1). The caller later marks it useless if the data was not sent.
func (m *Memory) SpeculativeRead(at sim.Cycle) (firstWord, done sim.Cycle) {
	fw, done := m.Read(at)
	m.SpecReads++
	return fw, done
}

// MarkUseless records that the most recent speculative read fetched data
// that was not used (the line was dirty elsewhere, or the request was
// NAKed).
func (m *Memory) MarkUseless() { m.SpecUseless++ }

// Write reserves a full-line write starting no earlier than at and returns
// when the controller frees.
func (m *Memory) Write(at sim.Cycle) (done sim.Cycle) {
	start, end := m.reserve(at)
	m.Writes++
	m.observe(trace.KindMemWrite, start)
	return end
}

// reserve books one line access no earlier than at and records how long it
// waits.
func (m *Memory) reserve(at sim.Cycle) (start, end sim.Cycle) {
	start, end = m.srv.Reserve(at, sim.Cycle(m.t.MemLineBusy))
	m.waitMax = max(m.waitMax, start-at)
	return start, end
}

// BacklogMax returns the deepest backlog a Read or Write found: the most
// line accesses booked ahead of any one, ⌈(start − at) / MemLineBusy⌉ at
// the longest wait.
func (m *Memory) BacklogMax() uint64 {
	line := sim.Cycle(m.t.MemLineBusy)
	return uint64((m.waitMax + line - 1) / line)
}

// CaptureState returns a copy of the controller's simulated state. The
// tracer is a host-side observer and is not captured.
func (m *Memory) CaptureState() MemoryState { return m.MemoryState }

// RestoreState installs st; the zero MemoryState is a fresh controller.
func (m *Memory) RestoreState(st MemoryState) { m.MemoryState = st }

// Busy returns the cycles the controller has served line accesses.
func (m *Memory) Busy() sim.Cycle { return m.srv.Busy }

// Accesses returns the total number of line accesses.
func (m *Memory) Accesses() uint64 { return m.Reads + m.Writes }
