package sim

import "fmt"

// Server is a reservation-based single-server FIFO resource: callers reserve
// service intervals and receive start/end times without needing events. This
// models resources like the memory controller and the processor bus exactly
// (single server, FIFO, non-preemptive) while keeping the event count low.
//
// Reservations must be made in nondecreasing request-time order, which the
// event engine guarantees for calls made at the dispatching event's own
// time. Callers that run ahead of the clock (the CPU model executes a
// chunk of references at virtual times beyond Now) can violate the order;
// the server then still serializes in call order, which is the intended
// FIFO semantics. Set Strict to assert the documented order in tests and
// debug runs.
type Server struct {
	busyUntil Cycle
	lastAt    Cycle
	Occ       OccupancyMeter

	// Strict makes Reserve panic when a reservation's request time precedes
	// the previous call's, turning the documented invariant into an
	// executable assertion. Off by default: checking is for tests and
	// debugging, not for production runs.
	Strict bool
}

// Reserve books dur cycles of service starting no earlier than at. It
// returns the service start and end times.
func (s *Server) Reserve(at Cycle, dur Cycle) (start, end Cycle) {
	if s.Strict && at < s.lastAt {
		panic(fmt.Sprintf("sim: Server.Reserve request time %d precedes previous request %d", at, s.lastAt))
	}
	s.lastAt = at
	start = at
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end = start + dur
	s.busyUntil = end
	s.Occ.AddBusy(dur)
	return start, end
}
