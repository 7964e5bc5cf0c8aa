// Package metrics is the simulator's host-side observability layer: a
// registry of named counters and gauges describing
// the cost of running the simulation itself (as opposed to internal/trace
// and internal/stats, which describe the simulated machine).
//
// A registry is written after a run, never during one: a machine publishes
// its counters and its engine's host-cost profile once, when Run returns
// (engines keep their hot-path observations in plain per-shard fields), and
// the commands add their host deltas and wall times after that. So the
// registry is two maps behind one mutex, and its only reader is the JSON
// snapshot. A nil *Registry is valid and discards every write. The
// non-perturbation test in internal/exp proves a metrics-enabled run stays
// cycle-identical to the golden digests.
package metrics

import (
	"fmt"
	"strings"
	"sync"
)

// Registry is a set of counters and gauges keyed by series id
// (name{k="v",...}). A series is created by its first write. Every method
// is safe for concurrent use and a no-op on a nil registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]uint64
	gauges   map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]uint64{}, gauges: map[string]int64{}}
}

// id renders the canonical series id: name{k1="v1",k2="v2"} from
// alternating key/value labels in the order given (callers use fixed label
// orders, so ids are stable).
func id(name string, labels []string) string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s: %v", name, labels))
	}
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Add adds n to the counter name{labels}.
func (r *Registry) Add(name string, n uint64, labels ...string) {
	if r == nil {
		return
	}
	k := id(name, labels)
	r.mu.Lock()
	r.counters[k] += n
	r.mu.Unlock()
}

// Set stores v in the gauge name{labels}.
func (r *Registry) Set(name string, v int64, labels ...string) {
	if r == nil {
		return
	}
	k := id(name, labels)
	r.mu.Lock()
	r.gauges[k] = v
	r.mu.Unlock()
}

// Max raises the gauge name{labels} to v if v is larger, or creates it at
// v: the high-water-mark write (queue depths).
func (r *Registry) Max(name string, v int64, labels ...string) {
	if r == nil {
		return
	}
	k := id(name, labels)
	r.mu.Lock()
	if cur, ok := r.gauges[k]; !ok || v > cur {
		r.gauges[k] = v
	}
	r.mu.Unlock()
}
