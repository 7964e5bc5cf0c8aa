package trace

// Buffer is an in-memory sink: the events emitted to it, in order.
type Buffer struct {
	Events []Event
}

// Emit appends ev.
func (b *Buffer) Emit(ev Event) { b.Events = append(b.Events, ev) }

// Close is a no-op.
func (b *Buffer) Close() error { return nil }
