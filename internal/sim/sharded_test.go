package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"flashsim/internal/memsys"
	"flashsim/internal/sim"
)

// The differential torture test drives both engines through an identical
// randomized workload — per-node local event chains, cross-node deliveries
// with lookahead-respecting latencies, and window-quantized stores through
// memsys views — and demands bit-identical results: per-node event logs,
// final store contents, executed-event counts, and the final clock.

const (
	tortureNodes  = 8
	tortureWindow = sim.Cycle(16)
	tortureWords  = 64
	tortureSteps  = 300 // local events per node
)

type tortureResult struct {
	logs     [][]uint64
	words    []uint64
	executed uint64
	sends    uint64 // cross-node Deliver calls issued
	now      sim.Cycle
	err      error
}

func xorshift(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// arrival is how the torture sends a message: it arranges for work to run
// on dst for a delivery arriving at cycle at.
type arrival func(b sim.Backend, at sim.Cycle, src, dst int, seq uint64, work func())

// plainArrival runs work as the delivery event itself.
func plainArrival(b sim.Backend, at sim.Cycle, src, dst int, seq uint64, work func()) {
	b.Node(src).Deliver(at, src, dst, seq, work)
}

func runTorture(b sim.Backend, limit sim.Cycle) tortureResult {
	return runTortureWith(b, limit, plainArrival)
}

func runTortureWith(b sim.Backend, limit sim.Cycle, send arrival) tortureResult {
	store := memsys.NewStore(tortureWords * 8)
	views := make([]*memsys.View, tortureNodes)
	for i := range views {
		views[i] = memsys.NewView(store)
	}
	b.SetQuantum(tortureWindow, func() {
		for _, v := range views {
			v.Flush()
		}
	})

	logs := make([][]uint64, tortureNodes)
	rngs := make([]uint64, tortureNodes)
	seqs := make([]uint64, tortureNodes)
	for i := range rngs {
		rngs[i] = uint64(0x9e3779b97f4a7c15 * uint64(i+1))
	}

	var tick func(i, n int)
	tick = func(i, n int) {
		s := b.Node(i)
		now := s.Now()
		r := xorshift(&rngs[i])
		logs[i] = append(logs[i], uint64(now)<<24|uint64(i)<<16|r&0xffff)
		switch r % 4 {
		case 0:
			views[i].Store(r%tortureWords, uint64(now)<<8|uint64(i))
		case 1:
			// Log the value read so cross-node visibility timing is pinned.
			logs[i] = append(logs[i], views[i].Load((r>>4)%tortureWords)<<1|1)
		case 2:
			dst := int((r >> 8) % tortureNodes)
			at := now + tortureWindow + sim.Cycle(r%50)
			seqs[i]++
			payload := r
			src := i
			send(b, at, src, dst, seqs[i], func() {
				d := b.Node(dst)
				logs[dst] = append(logs[dst], uint64(d.Now())<<24|uint64(src)<<4|0xf)
				views[dst].Store(payload%tortureWords, payload)
				d.At(d.Now()+3, func() {
					logs[dst] = append(logs[dst], uint64(d.Now())<<24|0xabc)
				})
			})
		}
		if n > 0 {
			s.After(1+sim.Cycle(r%37), func() { tick(i, n-1) })
		}
	}

	for i := 0; i < tortureNodes; i++ {
		i := i
		b.Node(i).At(sim.Cycle(1+i), func() { tick(i, tortureSteps) })
	}
	if limit != 0 {
		b.SetLimit(limit)
	}
	res := tortureResult{err: b.Run()}
	// Mirror core.Run: flush straggler buffered writes after the run so the
	// final store state is comparable.
	for _, v := range views {
		v.Flush()
	}
	res.logs = logs
	res.words = make([]uint64, tortureWords)
	for w := range res.words {
		res.words[w] = store.Load(uint64(w))
	}
	res.executed = b.ExecutedEvents()
	for _, s := range seqs {
		res.sends += s
	}
	res.now = b.Now()
	return res
}

func compareTorture(t *testing.T, name string, want, got tortureResult) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: err = %v, want %v", name, got.err, want.err)
	}
	if got.executed != want.executed {
		t.Errorf("%s: executed = %d, want %d", name, got.executed, want.executed)
	}
	if got.now != want.now {
		t.Errorf("%s: now = %d, want %d", name, got.now, want.now)
	}
	for i := range want.logs {
		if !reflect.DeepEqual(got.logs[i], want.logs[i]) {
			a, b := want.logs[i], got.logs[i]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			d := n
			for j := 0; j < n; j++ {
				if a[j] != b[j] {
					d = j
					break
				}
			}
			t.Fatalf("%s: node %d log diverges at entry %d/%d (want len %d, got len %d)",
				name, i, d, n, len(a), len(b))
		}
	}
	if !reflect.DeepEqual(got.words, want.words) {
		t.Errorf("%s: final store contents differ", name)
	}
}

// TestShardedDifferentialTorture is the core bit-identity check: the same
// workload on the sequential engine and on the sharded engine with several
// worker-pool sizes must produce identical observable behaviour.
func TestShardedDifferentialTorture(t *testing.T) {
	want := runTorture(sim.NewEngine(), 0)
	for _, workers := range []int{0, 1, 2, tortureNodes} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, 0)
		compareTorture(t, "sharded/workers="+string(rune('0'+workers)), want, got)
	}
}

// TestShardedDifferentialTortureWithLimit checks the two engines agree when
// the run aborts at a cycle limit mid-workload.
func TestShardedDifferentialTortureWithLimit(t *testing.T) {
	const limit = sim.Cycle(1500)
	want := runTorture(sim.NewEngine(), limit)
	if want.err != sim.ErrLimit {
		t.Fatalf("seq err = %v, want ErrLimit (limit too high for torture?)", want.err)
	}
	for _, workers := range []int{1, 4} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, limit)
		compareTorture(t, "sharded-limit", want, got)
	}
}

// TestShardedSettledDeliveryMatchesDeliverAfter is the settled delivery's
// contract: DeliverSettled(at, d, ...) runs its work exactly where a Deliver
// at `at` whose event did After(d, work) ran it — the same per-node logs
// (so the same place among that cycle's locals), store contents and final
// clock, one event fewer per message — on the sequential engine and on the
// sharded engine under both synchronization schemes.
func TestShardedSettledDeliveryMatchesDeliverAfter(t *testing.T) {
	backends := []struct {
		name string
		mk   func() sim.Backend
	}{
		{"seq", func() sim.Backend { return sim.NewEngine() }},
		{"barrier", func() sim.Backend { return sim.NewShardedEngine(tortureNodes, tortureWindow) }},
		{"barrier-1worker", func() sim.Backend {
			e := sim.NewShardedEngine(tortureNodes, tortureWindow)
			e.Workers = 1
			return e
		}},
		{"watermark", func() sim.Backend { return newWatermarkEngine(0) }},
		{"watermark-1worker", func() sim.Backend { return newWatermarkEngine(1) }},
	}
	for _, d := range []sim.Cycle{0, 1, 8, 37} {
		after := func(b sim.Backend, at sim.Cycle, src, dst int, seq uint64, work func()) {
			b.Node(src).Deliver(at, src, dst, seq, func() { b.Node(dst).After(d, work) })
		}
		settled := func(b sim.Backend, at sim.Cycle, src, dst int, seq uint64, work func()) {
			b.Node(src).DeliverSettled(at, d, src, dst, seq, work)
		}
		want := runTortureWith(sim.NewEngine(), 0, after)
		for _, bc := range backends {
			name := fmt.Sprintf("settle=%d/%s", d, bc.name)
			got := runTortureWith(bc.mk(), 0, settled)
			got.executed += got.sends // the After events the fold removed
			compareTorture(t, name, want, got)
		}
	}
}

// TestShardedWorkerPoolDeterminism runs the sharded engine repeatedly with
// different pool sizes and checks the results against each other — worker
// count and goroutine interleaving must never leak into simulated behaviour.
func TestShardedWorkerPoolDeterminism(t *testing.T) {
	var want tortureResult
	for rep, workers := range []int{1, 2, 3, 0, 0, 0} {
		e := sim.NewShardedEngine(tortureNodes, tortureWindow)
		e.Workers = workers
		got := runTorture(e, 0)
		if rep == 0 {
			want = got
			continue
		}
		compareTorture(t, "rep", want, got)
	}
}

// TestShardedLookaheadViolationPanics pins the guard rail: a delivery that
// lands inside the currently executing window (transit below the lookahead
// window) must panic rather than silently break causality.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	e := sim.NewShardedEngine(2, 10)
	e.Workers = 1 // keep the panic on the coordinator goroutine
	s := e.Node(0)
	s.At(5, func() {
		s.Deliver(7, 0, 1, 1, func() {})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("in-window delivery did not panic")
		}
	}()
	_ = e.Run()
}

// TestShardedStopFromShard checks Stop called from inside a shard event
// halts the whole engine promptly and Run returns cleanly.
func TestShardedStopFromShard(t *testing.T) {
	e := sim.NewShardedEngine(4, 10)
	var after bool
	e.Node(2).At(25, func() { e.Node(2).Stop() })
	e.Node(2).At(26, func() { after = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Fatal("event on stopping shard after Stop ran")
	}
	if e.Pending() == 0 {
		t.Fatal("pending event discarded by Stop")
	}
}
