// Package metrics is the simulator's host-side observability layer: a
// registry of named counters and gauges describing
// the cost of running the simulation itself (as opposed to internal/trace
// and internal/stats, which describe the simulated machine).
//
// The design mirrors the trace package's zero-cost-when-disabled pattern: a
// nil *Registry is valid and hands out discard instruments, so components
// can resolve their metrics unconditionally at setup time; engines batch
// their hot-path observations in plain per-shard fields and flush them into
// the registry at run boundaries, so an enabled registry never adds atomic
// traffic to the event loop. The non-perturbation test in internal/exp
// proves a metrics-enabled run stays cycle-identical to the golden digests.
//
// Instrument values use atomics throughout, so a registry may be shared by
// concurrent simulations and read (Snapshot, WriteJSON) while runs are in
// flight. Snapshot reads are per-instrument atomic, not globally
// linearizable: a read racing writers can observe one counter's update
// before another's.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v is larger — the high-water-mark
// operation (heap depths, queue peaks).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

func (k metricKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// entry is one registered instrument: its series id and exactly one of the
// two value types.
type entry struct {
	id   string // name plus rendered labels; the registry key
	kind metricKind

	c *Counter
	g *Gauge
}

// Registry is a concurrent-safe set of named instruments. Instruments are
// created on first lookup and live for the registry's lifetime; repeated
// lookups with the same name and labels return the same instrument. A nil
// *Registry is valid: lookups return fresh discard instruments and the
// exposition methods render an empty registry.
type Registry struct {
	mu   sync.Mutex
	byID map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*entry{}}
}

// id renders the canonical series id: name{k1="v1",k2="v2"} with labels in
// the order given (callers use fixed label orders, so ids are stable).
func id(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup get-or-creates the entry for (name, labels) of the given kind.
// Requesting an existing name with a different kind is a programming error
// and panics.
func (r *Registry) lookup(kind metricKind, name string, labels []string) *entry {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", name, labels))
	}
	key := id(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[key]
	if !ok {
		e = &entry{id: key, kind: kind}
		switch kind {
		case kindCounter:
			e.c = new(Counter)
		case kindGauge:
			e.g = new(Gauge)
		}
		r.byID[key] = e
	}
	if e.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", key, e.kind, kind))
	}
	return e
}

// Counter returns the counter for name with the given alternating
// key/value labels, creating it on first use. Nil-safe: a nil registry
// returns a discard counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.lookup(kindCounter, name, labels).c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	return r.lookup(kindGauge, name, labels).g
}

// sorted returns the entries ordered by id, for stable exposition.
func (r *Registry) sorted() []*entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*entry, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
