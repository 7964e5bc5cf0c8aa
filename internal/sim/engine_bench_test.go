package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule is the steady-state schedule+dispatch path: one
// event chain rescheduling itself at a future cycle, exercising push and
// pop on an otherwise empty ring. It must report 0 allocs/op — the event
// queue is monomorphic and the closure is allocated once, outside the timed
// region.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(3, tick)
		}
	}
	e.At(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSameCycle measures the same-cycle FIFO fast path: every
// event schedules its successor for the current cycle, so nothing touches
// the ring after the first event. Also 0 allocs/op in steady state.
func BenchmarkEngineSameCycle(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.At(e.Now(), tick)
		}
	}
	// Prime the run and grow the FIFO ring before the timed region.
	e.At(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineBurst mixes the two paths the way the machine does: each
// clock advance dispatches a burst of same-cycle events plus one ring event
// carrying the chain forward.
func BenchmarkEngineBurst(b *testing.B) {
	e := NewEngine()
	n := 0
	var burst func()
	var tick func()
	burst = func() { n++ }
	tick = func() {
		n++
		for i := 0; i < 7 && n < b.N; i++ {
			e.At(e.Now(), burst)
		}
		if n < b.N {
			e.After(5, tick)
		}
	}
	e.At(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineHeapDepth keeps 128 events parked a billion cycles out
// (beyond the ring horizon: they wait in their slots, sharing them with the
// near events of the timed chain) under one chain with delays of 1..64.
func BenchmarkEngineHeapDepth(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Cycle(1+n%64), tick)
		}
	}
	// A standing population of long-lived events.
	idle := func() {}
	for i := 0; i < 128; i++ {
		e.At(Cycle(1_000_000_000+i), idle)
	}
	e.At(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineMissMix is the queue as the simulation loads it: about 50
// events pending (the depth measured on MP3D at 16 processors) whose delays
// are drawn, seeded, from the measured scheduling-distance distribution —
// 63.4 % under 16 cycles, 36.2 % in [16,64), 0.02 % in [64,256), 0.02 % in
// [256,1024) — plus one event per thousand beyond the ring horizon. The
// single-chain benchmarks above are perfectly predictable and report a
// quarter of what an event costs inside a run; this one is the honest
// per-event number. 0 allocs/op.
func BenchmarkEngineMissMix(b *testing.B) {
	const table = 1 << 13
	rng := rand.New(rand.NewSource(14))
	delays := make([]Cycle, table)
	for i := range delays {
		switch p := rng.Intn(100_000); {
		case p < 100:
			delays[i] = Cycle(2*ringSize + rng.Intn(8*ringSize))
		case p < 120:
			delays[i] = Cycle(256 + rng.Intn(768))
		case p < 140:
			delays[i] = Cycle(64 + rng.Intn(192))
		case p < 36_340:
			delays[i] = Cycle(16 + rng.Intn(48))
		default:
			delays[i] = Cycle(1 + rng.Intn(15))
		}
	}
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			e.After(delays[n&(table-1)], tick)
		}
	}
	for i := 0; i < 50; i++ {
		e.At(Cycle(1+i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
