package memsys

import (
	"testing"
	"testing/quick"

	"flashsim/internal/arch"
	"flashsim/internal/sim"
)

func TestReadTiming(t *testing.T) {
	m := New(arch.DefaultTiming())
	fw, done := m.Read(100)
	if fw != 114 {
		t.Fatalf("first word at %d, want 114", fw)
	}
	if done != 129 {
		t.Fatalf("done at %d, want 129", done)
	}
	// A second read queues behind the first.
	fw2, done2 := m.Read(100)
	if fw2 != 129+14 || done2 != 129+29 {
		t.Fatalf("queued read = (%d,%d), want (143,158)", fw2, done2)
	}
}

func TestWriteOccupancy(t *testing.T) {
	m := New(arch.DefaultTiming())
	m.Write(0)
	m.Write(0)
	if got := m.srv.Busy; got != 58 {
		t.Fatalf("busy = %d, want 58", got)
	}
	if got := m.Busy(); got != 58 {
		t.Fatalf("Busy() = %d, want 58", got)
	}
	if got := m.BacklogMax(); got != 1 {
		t.Fatalf("backlog max = %d, want 1 (the second write queued behind the first)", got)
	}
	if m.Accesses() != 2 || m.Writes != 2 {
		t.Fatalf("accesses = %d writes = %d", m.Accesses(), m.Writes)
	}
}

func TestSpeculativeAccounting(t *testing.T) {
	m := New(arch.DefaultTiming())
	m.SpeculativeRead(0)
	m.SpeculativeRead(50)
	m.MarkUseless()
	if m.SpecReads != 2 || m.SpecUseless != 1 {
		t.Fatalf("spec = %d/%d, want 2/1", m.SpecUseless, m.SpecReads)
	}
	if m.Reads != 2 {
		t.Fatalf("spec reads must count as reads: %d", m.Reads)
	}
}

// Property: service is FIFO and non-overlapping for nondecreasing request
// times.
func TestNoOverlap(t *testing.T) {
	f := func(gaps []uint8) bool {
		m := New(arch.DefaultTiming())
		at := sim.Cycle(0)
		var prevDone sim.Cycle
		for _, g := range gaps {
			at += sim.Cycle(g)
			fw, done := m.Read(at)
			if fw < at+14 || done != fw+15 {
				return false
			}
			if fw-14 < prevDone { // service started before predecessor done
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
