// Package trace is the simulator's observability layer: a structured,
// causally-linked event tracer with its sinks (files, buffers, windowed
// occupancy) and fixed-bucket latency histograms.
//
// The tracer is strictly observational. Emitting an event never touches the
// event engine, never allocates on the simulated hot path when disabled,
// and never changes simulated behavior: the golden-digest test runs with a
// tracer attached and requires bit-identical cycle and event counts.
//
// A Tracer is per machine, not global: the experiment driver runs many
// machines concurrently, and each machine's simulation goroutine owns its
// tracer exclusively. A nil *Tracer is valid and means "tracing off"; every
// method has a nil fast path, so components hold a possibly-nil tracer and
// call it unconditionally.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindMsgSend marks a protocol message injected into the interconnect.
	KindMsgSend Kind = iota
	// KindMsgRecv marks a protocol message delivered to its destination node.
	KindMsgRecv
	// KindHandler is a handler invocation span: dispatch through completion
	// on MAGIC's protocol processor, or the zero-time equivalent on the
	// idealized controller.
	KindHandler
	// KindMissIssue marks a processor cache miss leaving for the controller.
	KindMissIssue
	// KindMissDone marks a miss completing (first data word on the bus).
	KindMissDone
	// KindNak marks a negative acknowledgment arriving at the requester.
	KindNak
	// KindFill marks a processor cache line fill.
	KindFill
	// KindEvict marks a victim leaving the processor cache (writeback or
	// replacement hint).
	KindEvict
	// KindIntervene marks a controller-initiated processor-cache transaction
	// (invalidate, downgrade, flush).
	KindIntervene
	// KindMemRead is a memory-controller read reservation span.
	KindMemRead
	// KindMemWrite is a memory-controller write reservation span.
	KindMemWrite

	numKinds
)

var kindNames = [numKinds]string{
	"msg-send", "msg-recv", "handler",
	"miss-issue", "miss-done", "nak",
	"fill", "evict", "intervene",
	"mem-read", "mem-write",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, keeping JSONL traces readable
// and stable across reorderings of the Kind constants.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts a defined kind, by name or by its number; any
// other value is an error, so a trace read from outside bytes holds only
// kinds the simulator emits.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, n := range kindNames {
			if n == s {
				*k = Kind(i)
				return nil
			}
		}
		return fmt.Errorf("trace: unknown event kind %q", s)
	}
	var v uint8
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	if v >= uint8(numKinds) {
		return fmt.Errorf("trace: unknown event kind %d", v)
	}
	*k = Kind(v)
	return nil
}

// Event is one structured trace record. Cycle is in simulated 10 ns cycles;
// Dur is nonzero for span events (handler executions, memory reservations).
// ID and Parent causally link records: a handler's Parent is the id of the
// message that dispatched it, a message's Parent is the id of the handler
// that composed it, and a miss completion's Parent is the id of the reply
// that delivered it. Name carries the handler entry point or message type.
type Event struct {
	Cycle  uint64 `json:"c"`
	Dur    uint64 `json:"d,omitempty"`
	Node   int32  `json:"n"`
	Kind   Kind   `json:"k"`
	Addr   uint64 `json:"a,omitempty"`
	Arg    uint64 `json:"x,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"p,omitempty"`
	Name   string `json:"name,omitempty"`
}

// Sink receives emitted events. Sinks are called from the machine's
// simulation goroutine only and need no internal locking.
type Sink interface {
	Emit(Event)
	Close() error
}

// Tracer hands events to its sinks and issues causal ids. The zero id
// means "no causal link"; real ids start at 1.
type Tracer struct {
	sinks  []Sink
	nextID uint64
}

// New returns a tracer handing each event to every sink, in order.
func New(sinks ...Sink) *Tracer { return &Tracer{sinks: sinks} }

// Active reports whether emitting is worthwhile; safe on a nil tracer.
// Components guard multi-field Event construction with Active so a disabled
// tracer costs one predictable branch.
func (t *Tracer) Active() bool { return t != nil && len(t.sinks) != 0 }

// NewID returns the next causal id, or 0 on a nil tracer.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// Emit hands ev to every sink; no-op on a nil or sink-less tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}

// Close flushes and closes every sink and joins their errors.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	errs := make([]error, len(t.sinks))
	for i, s := range t.sinks {
		errs[i] = s.Close()
	}
	return errors.Join(errs...)
}
