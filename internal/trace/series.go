package trace

// TimeSeries accumulates resource busy-cycles into fixed-width windows of
// the simulated clock, turning a whole-run occupancy scalar into an
// occupancy-over-time curve.
type TimeSeries struct {
	Window uint64   `json:"window"` // window width in cycles
	Busy   []uint64 `json:"busy"`   // busy cycles per window
}

// Add records a busy interval [at, at+dur), splitting it across window
// boundaries so each window's busy count is exact. A zero-length interval
// adds nothing, not even an empty window.
func (s *TimeSeries) Add(at, dur uint64) {
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

// Fractions returns per-window occupancy in [0,1], dividing each window's
// busy count by width*servers (servers > 1 when the series sums several
// resources), or nil when nothing was busy.
func (s *TimeSeries) Fractions(servers int) []float64 {
	if len(s.Busy) == 0 {
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

// Occupancy is a Sink that bins busy spans into occupancy-over-time
// series, summed over every node that emits into it: handler spans (the
// protocol processor's dispatch-to-completion occupancy) into PP, memory
// controller reservations into Mem. The idealized controller's handler
// spans take no time, so an ideal machine leaves PP empty.
type Occupancy struct {
	PP, Mem TimeSeries
}

// NewOccupancy returns a sink binning into windows of the given width in
// cycles (minimum 1).
func NewOccupancy(window uint64) *Occupancy {
	window = max(window, 1)
	return &Occupancy{PP: TimeSeries{Window: window}, Mem: TimeSeries{Window: window}}
}

// Emit implements Sink.
func (o *Occupancy) Emit(ev Event) {
	switch ev.Kind {
	case KindHandler:
		o.PP.Add(ev.Cycle, ev.Dur)
	case KindMemRead, KindMemWrite:
		o.Mem.Add(ev.Cycle, ev.Dur)
	}
}

// Close is a no-op: the series stay readable.
func (o *Occupancy) Close() error { return nil }
