package sim

// Server is a reservation-based single-server FIFO resource: callers reserve
// service intervals and receive start/end times without needing events. This
// models resources like the memory controller and the processor bus exactly
// (single server, FIFO, non-preemptive) while keeping the event count low.
// Busy counts the cycles it served, for the "memory occupancy" statistics
// of the paper (Tables 4.1 and 4.2).
//
// Reservations are made in nondecreasing request-time order at the
// dispatching event's own time. Callers that run ahead of the clock (the
// CPU model executes a chunk of references at virtual times beyond Now)
// can break that order; the server then serializes in call order, which is
// the intended FIFO semantics.
type Server struct {
	busyUntil Cycle
	Busy      Cycle
}

// Reserve books dur cycles of service starting no earlier than at. It
// returns the service start and end times.
func (s *Server) Reserve(at Cycle, dur Cycle) (start, end Cycle) {
	start = max(at, s.busyUntil)
	end = start + dur
	s.busyUntil = end
	s.Busy += dur
	return start, end
}

// Occupancy returns busy/total, a server's Busy over a span; total==0
// yields 0.
func Occupancy(busy, total Cycle) float64 {
	if total == 0 {
		return 0
	}
	return float64(busy) / float64(total)
}
