package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestServerReserveFIFO(t *testing.T) {
	var s Server
	start, end := s.Reserve(10, 5)
	if start != 10 || end != 15 {
		t.Fatalf("first reservation [%d,%d), want [10,15)", start, end)
	}
	// Overlapping request queues behind the busy interval.
	start, end = s.Reserve(12, 5)
	if start != 15 || end != 20 {
		t.Fatalf("queued reservation [%d,%d), want [15,20)", start, end)
	}
	// A later request on an idle server starts immediately.
	start, end = s.Reserve(100, 1)
	if start != 100 || end != 101 {
		t.Fatalf("idle reservation [%d,%d), want [100,101)", start, end)
	}
	if s.Busy != 11 {
		t.Fatalf("busy=%d, want 11", s.Busy)
	}
	if s.busyUntil != 101 {
		t.Fatalf("busyUntil = %d, want 101", s.busyUntil)
	}
}

func TestServerToleratesOutOfOrder(t *testing.T) {
	// The CPU model runs ahead of the clock within a chunk, so real machines
	// do make out-of-order reservations; the server serializes them in call
	// order.
	var s Server
	s.Reserve(20, 5)
	start, end := s.Reserve(10, 5)
	if start != 25 || end != 30 {
		t.Fatalf("out-of-order reservation [%d,%d), want serialized [25,30)", start, end)
	}
}

func TestServerOccupancyAccumulates(t *testing.T) {
	var s Server
	if s.Busy != 0 {
		t.Fatalf("zero value Busy = %d", s.Busy)
	}
	s.Reserve(0, 25)
	s.Reserve(0, 25)
	if s.Busy != 50 {
		t.Fatalf("Busy = %d, want 50", s.Busy)
	}
	if got := Occupancy(s.Busy, 100); got != 0.5 {
		t.Fatalf("Occupancy(100) = %v, want 0.5", got)
	}
	s.Reserve(60, 0)
	if s.Busy != 50 {
		t.Fatalf("a zero-length reservation changed Busy to %d", s.Busy)
	}
}

func TestServerOccupancyEdges(t *testing.T) {
	var s Server
	if got := Occupancy(s.Busy, 100); got != 0 {
		t.Fatalf("idle Occupancy = %v, want 0", got)
	}
	s.Reserve(0, 10)
	if got := Occupancy(s.Busy, 0); got != 0 {
		t.Fatalf("Occupancy(0) = %v, want 0 (no divide-by-zero)", got)
	}
	if got := Occupancy(s.Busy, 10); got != 1 {
		t.Fatalf("saturated Occupancy = %v, want 1", got)
	}
	// A total shorter than the served interval reports > 1 rather than
	// clamping, so a caller's mismeasured total shows.
	if got := Occupancy(s.Busy, 5); got != 2 {
		t.Fatalf("oversubscribed Occupancy = %v, want 2", got)
	}
}

// Property: Occupancy is Busy/total for any split of the served cycles
// into reservations — the count is order- and granularity-independent.
func TestServerOccupancySplitInvariance(t *testing.T) {
	f := func(chunks []uint16, total uint32) bool {
		var whole, split Server
		var sum Cycle
		for _, c := range chunks {
			split.Reserve(0, Cycle(c))
			sum += Cycle(c)
		}
		whole.Reserve(0, sum)
		a, b := Occupancy(whole.Busy, Cycle(total)), Occupancy(split.Busy, Cycle(total))
		return a == b && (total == 0 || !math.Signbit(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
