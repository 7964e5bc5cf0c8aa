package metrics

import (
	"encoding/json"
	"io"
)

// Snapshot is a point-in-time copy of every instrument in a registry,
// keyed by the canonical series id (name{k="v",...}).
type Snapshot struct {
	Counters map[string]uint64 `json:"counters,omitempty"`
	Gauges   map[string]int64  `json:"gauges,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, e := range r.sorted() {
		switch e.kind {
		case kindCounter:
			if s.Counters == nil {
				s.Counters = map[string]uint64{}
			}
			s.Counters[e.id] = e.c.Value()
		case kindGauge:
			if s.Gauges == nil {
				s.Gauges = map[string]int64{}
			}
			s.Gauges[e.id] = e.g.Value()
		}
	}
	return s
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
