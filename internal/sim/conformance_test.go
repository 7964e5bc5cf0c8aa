package sim_test

import (
	"fmt"
	"testing"

	"flashsim/internal/sim"
)

// backendCase builds one engine behind the shared Backend interface. The
// conformance suite runs every scenario against both engines and demands
// identical observable behaviour — the edge cases here are the contract the
// sharded backend must honor bit-for-bit.
type backendCase struct {
	name string
	mk   func(nodes int, window sim.Cycle) sim.Backend
}

func backendCases() []backendCase {
	return []backendCase{
		{"seq", func(nodes int, window sim.Cycle) sim.Backend {
			return sim.NewEngine()
		}},
		{"sharded", func(nodes int, window sim.Cycle) sim.Backend {
			return sim.NewShardedEngine(nodes, window)
		}},
		{"sharded-1worker", func(nodes int, window sim.Cycle) sim.Backend {
			e := sim.NewShardedEngine(nodes, window)
			e.Workers = 1
			return e
		}},
		{"watermark", func(nodes int, window sim.Cycle) sim.Backend {
			e := sim.NewShardedEngine(nodes, window)
			e.SetSync(sim.SyncWatermark)
			return e
		}},
		{"watermark-1worker", func(nodes int, window sim.Cycle) sim.Backend {
			e := sim.NewShardedEngine(nodes, window)
			e.SetSync(sim.SyncWatermark)
			e.Workers = 1
			return e
		}},
	}
}

// TestConformanceStopInsideFifo pins Stop called from a same-cycle FIFO
// event: the current event completes, later FIFO entries and future events
// stay pending.
func TestConformanceStopInsideFifo(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(1, 10)
			s := b.Node(0)
			var order []int
			s.At(5, func() {
				order = append(order, 1)
				s.At(5, func() {
					order = append(order, 2)
					s.Stop()
				})
				s.At(5, func() { order = append(order, 3) })
			})
			s.At(9, func() { order = append(order, 4) })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if len(order) != 2 || order[0] != 1 || order[1] != 2 {
				t.Fatalf("order = %v, want [1 2]", order)
			}
			if got := b.Pending(); got != 2 {
				t.Fatalf("Pending = %d, want 2 (one fifo entry, one future event)", got)
			}
			if got := b.ExecutedEvents(); got != 2 {
				t.Fatalf("ExecutedEvents = %d, want 2", got)
			}
		})
	}
}

// TestConformanceAtExactlyLimit pins the limit boundary: an event at
// exactly Limit runs; anything beyond aborts with ErrLimit.
func TestConformanceAtExactlyLimit(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(1, 10)
			ran := false
			b.Node(0).At(42, func() { ran = true })
			b.SetLimit(42)
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if !ran {
				t.Fatal("event at exactly Limit did not run")
			}

			b = bc.mk(1, 10)
			ran = false
			b.Node(0).At(43, func() { ran = true })
			b.SetLimit(42)
			if err := b.Run(); err != sim.ErrLimit {
				t.Fatalf("err = %v, want ErrLimit", err)
			}
			if ran {
				t.Fatal("event beyond Limit ran")
			}
			if got := b.Pending(); got != 1 {
				t.Fatalf("Pending = %d, want 1", got)
			}
		})
	}
}

// TestConformanceFifoCompaction pins FIFO ordering across the fifoPos
// compaction threshold: a same-cycle chain of several thousand events must
// dispatch strictly in insertion order on both engines.
func TestConformanceFifoCompaction(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			const chain = 5000
			b := bc.mk(1, 10)
			s := b.Node(0)
			var got []int
			var step func(i int)
			step = func(i int) {
				got = append(got, i)
				if i+1 < chain {
					s.At(s.Now(), func() { step(i + 1) })
				}
			}
			after := false
			s.At(3, func() { step(0) })
			s.At(4, func() { after = true })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			if len(got) != chain {
				t.Fatalf("dispatched %d, want %d", len(got), chain)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("got[%d] = %d: FIFO order violated across compaction", i, v)
				}
			}
			if !after {
				t.Fatal("next-cycle event did not run")
			}
		})
	}
}

// TestConformanceDeliveryOrdering pins the shared ordering rule: at a given
// cycle, deliveries dispatch before locally scheduled events, ordered by
// (source node, send sequence) regardless of the order the Deliver calls
// were made.
func TestConformanceDeliveryOrdering(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(3, 10)
			n1 := b.Node(1)
			var order []string
			n1.At(30, func() { order = append(order, "localA") })
			n1.At(30, func() { order = append(order, "localB") })
			// Deliver calls arrive out of source order; dispatch must not
			// care.
			b.Node(2).Deliver(30, 2, 1, 1, func() { order = append(order, "d2.1") })
			b.Node(2).Deliver(30, 2, 1, 2, func() { order = append(order, "d2.2") })
			b.Node(0).Deliver(30, 0, 1, 1, func() { order = append(order, "d0.1") })
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			want := []string{"d0.1", "d2.1", "d2.2", "localA", "localB"}
			if len(order) != len(want) {
				t.Fatalf("order = %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v, want %v", order, want)
				}
			}
		})
	}
}

// TestConformanceSettledDelivery pins a settled delivery's place among the
// events of its cycle: after the locals scheduled before its arrival, after
// plain deliveries, ahead of the locals scheduled at or after its arrival,
// and among settled peers by (source node, send sequence); and a reserved
// key's: where At at the reservation would have put the event.
func TestConformanceSettledDelivery(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.mk(3, 10)
			n1 := b.Node(1)
			var order []string
			log := func(name string) func() { return func() { order = append(order, name) } }
			var k sim.Key
			n1.At(5, func() {
				n1.At(38, log("early"))
				k = n1.Reserve()
				n1.At(38, log("mid"))
			})
			n1.At(30, func() { n1.At(38, log("late")) })
			n1.At(31, func() { n1.AtKey(38, k, log("reserved")) })
			b.Node(2).DeliverSettled(30, 8, 2, 1, 1, log("s2.1"))
			b.Node(0).DeliverSettled(30, 8, 0, 1, 1, log("s0.1"))
			b.Node(0).Deliver(38, 0, 1, 2, log("d0.2"))
			if err := b.Run(); err != nil {
				t.Fatal(err)
			}
			want := "[d0.2 early reserved mid s0.1 s2.1 late]"
			if got := fmt.Sprint(order); got != want {
				t.Fatalf("order = %s, want %s", got, want)
			}
		})
	}
}
