package sim

import (
	"strings"
	"testing"
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
	if s.Occ.Busy != 11 {
		t.Fatalf("busy=%d, want 11", s.Occ.Busy)
	}
	if s.busyUntil != 101 {
		t.Fatalf("busyUntil = %d, want 101", s.busyUntil)
	}
}

func TestServerStrictAssertsNondecreasingOrder(t *testing.T) {
	var s Server
	s.Strict = true
	s.Reserve(10, 5)
	s.Reserve(10, 5) // equal request times are fine
	s.Reserve(20, 5)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Strict Reserve with decreasing request time did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "precedes previous request 20") {
			t.Fatalf("panic = %v, want request-order message", r)
		}
	}()
	s.Reserve(19, 5)
}

func TestServerNonStrictToleratesOutOfOrder(t *testing.T) {
	// The CPU model runs ahead of the clock within a chunk, so real machines
	// do make out-of-order reservations; the default server serializes them
	// in call order.
	var s Server
	s.Reserve(20, 5)
	start, end := s.Reserve(10, 5)
	if start != 25 || end != 30 {
		t.Fatalf("out-of-order reservation [%d,%d), want serialized [25,30)", start, end)
	}
}
