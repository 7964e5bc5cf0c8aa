package trace

// TimeSeries accumulates resource busy-cycles into fixed-width windows of
// the simulated clock, turning a whole-run occupancy scalar into an
// occupancy-over-time curve. A nil *TimeSeries is valid and means
// "sampling off": Add on nil is a no-op, so components call it
// unconditionally next to their busy-cycle accounting.
type TimeSeries struct {
	Window uint64   `json:"window"` // window width in cycles
	Busy   []uint64 `json:"busy"`   // busy cycles per window
}

// NewTimeSeries returns a sampler with the given window width in cycles
// (minimum 1).
func NewTimeSeries(window uint64) *TimeSeries {
	if window == 0 {
		window = 1
	}
	return &TimeSeries{Window: window}
}

// Add records a busy interval [at, at+dur), splitting it across window
// boundaries so each window's busy count is exact.
func (s *TimeSeries) Add(at, dur uint64) {
	if s == nil || dur == 0 {
		return
	}
	for dur > 0 {
		w := at / s.Window
		for uint64(len(s.Busy)) <= w {
			s.Busy = append(s.Busy, 0)
		}
		span := (w+1)*s.Window - at // room left in this window
		if span > dur {
			span = dur
		}
		s.Busy[w] += span
		at += span
		dur -= span
	}
}

// Reset forgets every window, keeping the width: sampling stays on.
func (s *TimeSeries) Reset() {
	if s != nil {
		s.Busy = s.Busy[:0]
	}
}

// Merge folds o (which must share the window width) into s, summing busy
// counts per window.
func (s *TimeSeries) Merge(o *TimeSeries) {
	if s == nil || o == nil {
		return
	}
	for len(s.Busy) < len(o.Busy) {
		s.Busy = append(s.Busy, 0)
	}
	for i, b := range o.Busy {
		s.Busy[i] += b
	}
}

// Fractions returns per-window occupancy in [0,1], dividing each window's
// busy count by width*servers (servers > 1 when the series aggregates
// several merged resources).
func (s *TimeSeries) Fractions(servers int) []float64 {
	if s == nil || len(s.Busy) == 0 {
		return nil
	}
	if servers < 1 {
		servers = 1
	}
	out := make([]float64, len(s.Busy))
	den := float64(s.Window) * float64(servers)
	for i, b := range s.Busy {
		out[i] = float64(b) / den
	}
	return out
}
