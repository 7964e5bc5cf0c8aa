package metrics

import (
	"encoding/json"
	"io"
	"maps"
)

// Snapshot is a point-in-time copy of every series in a registry, keyed by
// the canonical series id (name{k="v",...}).
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Snapshot{Counters: maps.Clone(r.counters), Gauges: maps.Clone(r.gauges)}
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
