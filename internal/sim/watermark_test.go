package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flashsim/internal/memsys"
	"flashsim/internal/sim"
)

// The watermark tests mirror the sharded barrier suite: the per-pair
// watermark scheduler must stay bit-identical to the sequential engine for
// every worker count, including under nonuniform per-pair latencies where
// far-apart shards run many windows ahead of each other.

// skewDist is a deliberately asymmetric distance model for the torture
// tests: transit depends on both endpoints, spanning skewMin..skewMax
// cycles, with some pairs well below the uniform torture window.
type skewDist struct{}

const (
	skewMin = sim.Cycle(8)
	skewMax = sim.Cycle(30)
)

func (skewDist) MinTransit(src, dst int) sim.Cycle {
	if src == dst {
		return 1
	}
	return skewMin + sim.Cycle((src*7+dst*11)%23) // 8..30
}

// runTortureDist is runTorture with per-pair delivery latencies drawn from
// dm: transit = MinTransit(src,dst) + jitter instead of window + jitter.
// The workload is engine-independent, so the sequential engine replays it
// identically without knowing about dm.
func runTortureDist(b sim.Backend, dm sim.DistanceModel, limit sim.Cycle) tortureResult {
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
			logs[i] = append(logs[i], views[i].Load((r>>4)%tortureWords)<<1|1)
		case 2:
			dst := int((r >> 8) % tortureNodes)
			at := now + dm.MinTransit(i, dst) + sim.Cycle(r%50)
			seqs[i]++
			payload := r
			src := i
			s.Deliver(at, src, dst, seqs[i], func() {
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

func newWatermarkEngine(workers int, dm sim.DistanceModel) *sim.ShardedEngine {
	e := sim.NewShardedEngine(tortureNodes, tortureWindow)
	e.SetSync(sim.SyncWatermark)
	e.SetLookahead(dm)
	e.Workers = workers
	return e
}

// TestWatermarkDifferentialTorture: watermark mode with uniform lookahead
// must be bit-identical to the sequential engine at every pool size.
func TestWatermarkDifferentialTorture(t *testing.T) {
	want := runTorture(sim.NewEngine(), 0)
	for _, workers := range []int{0, 1, 2, tortureNodes} {
		got := runTorture(newWatermarkEngine(workers, nil), 0)
		compareTorture(t, fmt.Sprintf("watermark/workers=%d", workers), want, got)
	}
}

// TestWatermarkDifferentialTortureNonuniform is the distance-aware variant:
// per-pair delivery latencies (8..30 cycles, some well under the store
// quantum of 16) with the matching lookahead matrix installed. The
// sequential engine replays the same workload with no matrix; results must
// stay bit-identical even though shards now advance at pair-dependent
// horizons.
func TestWatermarkDifferentialTortureNonuniform(t *testing.T) {
	dm := skewDist{}
	want := runTortureDist(sim.NewEngine(), dm, 0)
	for _, workers := range []int{0, 1, 2, tortureNodes} {
		got := runTortureDist(newWatermarkEngine(workers, dm), dm, 0)
		compareTorture(t, fmt.Sprintf("watermark-dist/workers=%d", workers), want, got)
	}
}

// TestWatermarkSelfEchoOrdering pins the self-rooted echo bound in the
// closed-form horizon solve: with no flush gate and no limit, a shard whose
// peers hold no events must still cap its horizon at its own next event plus
// the minimum round trip, because one of its own sends can trigger a reply
// that lands between its events. Node 0 holds events at 10 and 100; event
// @10 delivers 0->1@15 whose handler delivers 1->0@20 — the reply must run
// before n0@100, as on the sequential engine. An uncapped horizon executes
// n0@100 first and the shard clock runs backwards when the echo arrives.
func TestWatermarkSelfEchoOrdering(t *testing.T) {
	run := func(b sim.Backend) string {
		var log []string
		b.Node(0).At(10, func() {
			log = append(log, fmt.Sprintf("n0@%d", b.Node(0).Now()))
			b.Node(0).Deliver(15, 0, 1, 1, func() {
				log = append(log, fmt.Sprintf("n1@%d", b.Node(1).Now()))
				b.Node(1).Deliver(20, 1, 0, 1, func() {
					log = append(log, fmt.Sprintf("reply@%d", b.Node(0).Now()))
				})
			})
		})
		b.Node(0).At(100, func() {
			log = append(log, fmt.Sprintf("n0@%d", b.Node(0).Now()))
		})
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	want := run(sim.NewEngine())
	// flatDist forces the matrix branch of the direct solve (2 nodes have no
	// off-diagonal triples, so the matrix is trivially metric); nil takes the
	// uniform min/second-min branch. Both omit the flush gate and the limit.
	for _, dm := range []sim.DistanceModel{nil, flatDist(5)} {
		for _, workers := range []int{1, 2} {
			e := sim.NewShardedEngine(2, 5)
			e.SetSync(sim.SyncWatermark)
			e.SetLookahead(dm)
			e.Workers = workers
			if got := run(e); got != want {
				t.Fatalf("matrix=%v workers=%d: order %q, want %q", dm != nil, workers, got, want)
			}
		}
	}
}

// flatDist is a uniform distance model expressed as a matrix, so the solver
// takes the matrix code path instead of the uniform fast path.
type flatDist sim.Cycle

func (f flatDist) MinTransit(src, dst int) sim.Cycle {
	if src == dst {
		return 1
	}
	return sim.Cycle(f)
}

// gridDist is a metric distance model (4x2 grid, Manhattan hops): it
// satisfies the triangle inequality, so the scheduler solves horizons with
// the closed-form one-pass path instead of the iterative fixpoint skewDist
// forces. Both solver paths must be bit-identical to the sequential engine.
type gridDist struct{}

func (gridDist) MinTransit(src, dst int) sim.Cycle {
	if src == dst {
		return 1
	}
	dx := src%4 - dst%4
	if dx < 0 {
		dx = -dx
	}
	dy := src/4 - dst/4
	if dy < 0 {
		dy = -dy
	}
	return sim.Cycle(5 + 3*(dx+dy))
}

// TestWatermarkDifferentialTortureMetric covers the closed-form solver on a
// genuinely nonuniform (but metric) lookahead matrix.
func TestWatermarkDifferentialTortureMetric(t *testing.T) {
	dm := gridDist{}
	want := runTortureDist(sim.NewEngine(), dm, 0)
	for _, workers := range []int{1, tortureNodes} {
		got := runTortureDist(newWatermarkEngine(workers, dm), dm, 0)
		compareTorture(t, fmt.Sprintf("watermark-grid/workers=%d", workers), want, got)
	}
}

// runTortureEcho is the echo-chain torture: per-node event chains whose
// deliveries travel at exactly the pair's minimum transit and whose handlers
// echo straight back to the sender — the tightest causal loops the lookahead
// matrix permits. quantum 0 runs with no store-visibility flush at all
// (eff = noCap in every decide); a nonzero quantum installs the gate with
// memsys views, covering matrices whose round trips are shorter than the
// window. gap bounds each node's local chain spacing: large gaps leave lone
// event-holders (whose horizons would be unbounded without the self
// round-trip cap), small gaps pack several events per node into one
// visibility window so echoes interleave with them below the gate.
func runTortureEcho(b sim.Backend, dm sim.DistanceModel, quantum sim.Cycle, gap uint64) tortureResult {
	transit := func(src, dst int) sim.Cycle {
		if dm == nil {
			return tortureWindow
		}
		return dm.MinTransit(src, dst)
	}
	var store *memsys.Store
	var views []*memsys.View
	if quantum != 0 {
		store = memsys.NewStore(tortureWords * 8)
		views = make([]*memsys.View, tortureNodes)
		for i := range views {
			views[i] = memsys.NewView(store)
		}
		b.SetQuantum(quantum, func() {
			for _, v := range views {
				v.Flush()
			}
		})
	}

	logs := make([][]uint64, tortureNodes)
	rngs := make([]uint64, tortureNodes)
	seqs := make([]uint64, tortureNodes)
	for i := range rngs {
		rngs[i] = uint64(0x9e3779b97f4a7c15 * uint64(i+1))
	}
	// send dispatches a minimum-transit delivery src->dst; its handler logs,
	// optionally stores, and echoes back to src with depth-1 until the chain
	// dies, producing src->dst->src->... ping-pong at the matrix bound.
	var send func(src, dst, depth int, payload uint64)
	send = func(src, dst, depth int, payload uint64) {
		s := b.Node(src)
		at := s.Now() + transit(src, dst)
		seqs[src]++
		s.Deliver(at, src, dst, seqs[src], func() {
			d := b.Node(dst)
			logs[dst] = append(logs[dst], uint64(d.Now())<<24|uint64(src)<<8|uint64(depth))
			if views != nil {
				views[dst].Store(payload%tortureWords, payload^uint64(d.Now()))
			}
			if depth > 0 {
				send(dst, src, depth-1, payload>>1)
			}
		})
	}
	var tick func(i, n int)
	tick = func(i, n int) {
		s := b.Node(i)
		r := xorshift(&rngs[i])
		logs[i] = append(logs[i], uint64(s.Now())<<24|uint64(i)<<16|r&0xffff)
		switch r % 3 {
		case 0:
			send(i, int((r>>8)%tortureNodes), int(r>>4%4), r)
		case 1:
			if views != nil {
				logs[i] = append(logs[i], views[i].Load((r>>4)%tortureWords)<<1|1)
			}
		}
		if n > 0 {
			s.After(1+sim.Cycle(r%gap), func() { tick(i, n-1) })
		}
	}
	for i := 0; i < tortureNodes; i++ {
		i := i
		b.Node(i).At(sim.Cycle(1+i), func() { tick(i, tortureSteps/3) })
	}
	res := tortureResult{err: b.Run()}
	res.logs = logs
	if store != nil {
		for _, v := range views {
			v.Flush()
		}
		res.words = make([]uint64, tortureWords)
		for w := range res.words {
			res.words[w] = store.Load(uint64(w))
		}
	}
	res.executed = b.ExecutedEvents()
	for _, s := range seqs {
		res.sends += s
	}
	res.now = b.Now()
	return res
}

// TestWatermarkDifferentialTortureFlushFree pins the self-echo horizon cap
// at torture scale: no flush gate, no limit, sparse events, minimum-transit
// echo chains — under uniform, metric (closed-form), and non-metric
// (fixpoint) lookahead. Before the cap, a shard alone in holding events ran
// unboundedly far ahead and echoes landed below its committed frontier.
func TestWatermarkDifferentialTortureFlushFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		dm   sim.DistanceModel
	}{{"uniform", nil}, {"grid", gridDist{}}, {"skew", skewDist{}}} {
		want := runTortureEcho(sim.NewEngine(), tc.dm, 0, 499)
		for _, workers := range []int{1, 2, tortureNodes} {
			got := runTortureEcho(newWatermarkEngine(workers, tc.dm), tc.dm, 0, 499)
			compareTorture(t, fmt.Sprintf("echo-%s/workers=%d", tc.name, workers), want, got)
		}
	}
}

// nearDist is a metric model whose round trips (8..) undercut the store
// window (16): echo chains complete within a single visibility quantum, so
// the flush gate alone cannot serialize them — safety must come from the
// solver's round-trip cap. gridDist (min round trip 16 = the window) sits
// exactly at the masking threshold and cannot catch that regression.
type nearDist struct{}

func (nearDist) MinTransit(src, dst int) sim.Cycle {
	if src == dst {
		return 1
	}
	d := src - dst
	if d < 0 {
		d = -d
	}
	return sim.Cycle(3 + d) // 4..10, all below the window of 16
}

// TestWatermarkGatedSelfEchoWithinWindow pins the issue the flush gate
// alone cannot mask: a matrix round trip (8) below the window (16) lets an
// echo chain complete inside one visibility quantum, so the gate cap on the
// horizon does not order it — the solver's self round-trip cap must. Node 0
// holds events at 2 and 12 in the first window; event @2 sends 0->1@6 whose
// handler replies 1->0@10, and the reply must run before n0@12. Node 1's
// far event keeps it from draining early without bounding node 0's horizon.
func TestWatermarkGatedSelfEchoWithinWindow(t *testing.T) {
	run := func(b sim.Backend) string {
		b.SetQuantum(16, func() {})
		var log []string
		b.Node(0).At(2, func() {
			log = append(log, fmt.Sprintf("n0@%d", b.Node(0).Now()))
			b.Node(0).Deliver(6, 0, 1, 1, func() {
				log = append(log, fmt.Sprintf("n1@%d", b.Node(1).Now()))
				b.Node(1).Deliver(10, 1, 0, 1, func() {
					log = append(log, fmt.Sprintf("reply@%d", b.Node(0).Now()))
				})
			})
		})
		b.Node(0).At(12, func() {
			log = append(log, fmt.Sprintf("n0@%d", b.Node(0).Now()))
		})
		b.Node(1).At(200, func() {
			log = append(log, fmt.Sprintf("n1@%d", b.Node(1).Now()))
		})
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, " ")
	}
	want := run(sim.NewEngine())
	for _, workers := range []int{1, 2} {
		e := sim.NewShardedEngine(2, 16)
		e.SetSync(sim.SyncWatermark)
		e.SetLookahead(flatDist(4))
		e.Workers = workers
		if got := run(e); got != want {
			t.Fatalf("workers=%d: order %q, want %q", workers, got, want)
		}
	}
}

// TestWatermarkDifferentialTortureShortRoundTrip covers watermark safety
// when the lookahead matrix's minimum round trip is well below the engine
// window: within-window echoes at minimum transit, with the store gate
// installed, must stay bit-identical to the sequential engine.
func TestWatermarkDifferentialTortureShortRoundTrip(t *testing.T) {
	dm := nearDist{}
	want := runTortureEcho(sim.NewEngine(), dm, tortureWindow, 24)
	for _, workers := range []int{1, 2, tortureNodes} {
		got := runTortureEcho(newWatermarkEngine(workers, dm), dm, tortureWindow, 24)
		compareTorture(t, fmt.Sprintf("near/workers=%d", workers), want, got)
	}
}

// TestWatermarkDifferentialTortureWithLimit checks ErrLimit agreement and
// that a limited run can be resumed with a higher limit, matching the
// sequential engine at every step.
func TestWatermarkDifferentialTortureWithLimit(t *testing.T) {
	const limit = sim.Cycle(1500)
	want := runTorture(sim.NewEngine(), limit)
	if want.err != sim.ErrLimit {
		t.Fatalf("seq err = %v, want ErrLimit", want.err)
	}
	for _, workers := range []int{1, 4} {
		got := runTorture(newWatermarkEngine(workers, nil), limit)
		compareTorture(t, "watermark-limit", want, got)
	}
}

// TestWatermarkResumeAfterLimit pins ErrLimit resumability: frontiers and
// the flush gate persist across Run calls, so raising the limit and
// rerunning continues the simulation exactly where it stopped.
func TestWatermarkResumeAfterLimit(t *testing.T) {
	run := func(b sim.Backend) (mid, fin uint64, now sim.Cycle) {
		// Per-node delivery sequence numbers: each ping runs on its own
		// shard, possibly on its own worker, so the nodes share no counter.
		var seq [4]uint64
		for i := 0; i < 4; i++ {
			i := i
			var ping func()
			ping = func() {
				s := b.Node(i)
				seq[i]++
				dst := (i + 1) % 4
				s.Deliver(s.Now()+12, i, dst, seq[i], func() {})
				if s.Now() < 900 {
					s.After(7+sim.Cycle(i), ping)
				}
			}
			b.Node(i).At(sim.Cycle(1+i), ping)
		}
		b.SetLimit(400)
		if err := b.Run(); err != sim.ErrLimit {
			t.Fatalf("first run err = %v, want ErrLimit", err)
		}
		mid = b.ExecutedEvents()
		b.SetLimit(0)
		if err := b.Run(); err != nil {
			t.Fatalf("resume err = %v", err)
		}
		return mid, b.ExecutedEvents(), b.Now()
	}
	wm, wf, wn := run(sim.NewEngine())
	e := sim.NewShardedEngine(4, 10)
	e.SetSync(sim.SyncWatermark)
	gm, gf, gn := run(e)
	if gm != wm || gf != wf || gn != wn {
		t.Fatalf("watermark resume = (%d,%d,%d), want (%d,%d,%d)", gm, gf, gn, wm, wf, wn)
	}
}

// TestWatermarkIdleShardNoDeadlock is the deadlock-freedom check from the
// issue: shards that never send must not stall their peers. Node 3 holds a
// single far-future event and no traffic; nodes 0..2 ping-pong thousands of
// deliveries below it. The null-message fixpoint must carry node 3's
// frontier forward so the ring keeps advancing; a scheduler stall would
// trip the watchdog.
func TestWatermarkIdleShardNoDeadlock(t *testing.T) {
	e := sim.NewShardedEngine(4, 10)
	e.SetSync(sim.SyncWatermark)
	e.Workers = 4
	var hops int
	var hop func(node int)
	hop = func(node int) {
		hops++
		s := e.Node(node)
		if s.Now() > 50000 {
			return
		}
		dst := (node + 1) % 3
		s.Deliver(s.Now()+10, node, dst, uint64(hops), func() { hop(dst) })
	}
	e.Node(0).At(1, func() { hop(0) })
	var lateRan bool
	e.Node(3).At(60000, func() { lateRan = true })

	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("watermark engine deadlocked with an idle shard")
	}
	if hops < 1000 {
		t.Fatalf("ring made only %d hops", hops)
	}
	if !lateRan {
		t.Fatal("idle shard's far-future event never ran")
	}
}

// TestWatermarkLookaheadViolationPanics pins the sharpened guard rail: the
// panic must name the (src,dst) pair and the pair's lookahead bound.
func TestWatermarkLookaheadViolationPanics(t *testing.T) {
	e := sim.NewShardedEngine(2, 10)
	e.SetSync(sim.SyncWatermark)
	e.Workers = 1
	s := e.Node(0)
	s.At(5, func() {
		s.Deliver(7, 0, 1, 1, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sub-lookahead delivery did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"0->1", "at cycle 7", "sent at 5", "pair lookahead 10"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	_ = e.Run()
}

// TestBarrierViolationPanicNamesPair pins the barrier-mode message shape,
// which now also names the offending pair and its lookahead bound.
func TestBarrierViolationPanicNamesPair(t *testing.T) {
	e := sim.NewShardedEngine(2, 10)
	e.Workers = 1
	s := e.Node(0)
	s.At(5, func() {
		s.Deliver(7, 0, 1, 1, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("in-window delivery did not panic")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"0->1", "at cycle 7", "window ending 10", "pair lookahead 10"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	_ = e.Run()
}

// TestWatermarkStopFromShard mirrors the barrier Stop semantics: the
// stopping shard halts immediately, in-flight bursts finish, pending events
// survive.
func TestWatermarkStopFromShard(t *testing.T) {
	e := sim.NewShardedEngine(4, 10)
	e.SetSync(sim.SyncWatermark)
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

// TestWatermarkProfileCoverage checks the watermark phases account for the
// run: burst exec + horizon wait + frontier solve must cover >= 95% of
// engine wall time, and the sync-op counters must be populated.
func TestWatermarkProfileCoverage(t *testing.T) {
	e := newWatermarkEngine(2, nil)
	e.EnableProfiling()
	res := runTorture(e, 0)
	if res.err != nil {
		t.Fatal(res.err)
	}
	p := e.Profile()
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Sync != "watermark" {
		t.Fatalf("profile sync = %q", p.Sync)
	}
	if c := p.Coverage(); c < 0.95 {
		t.Fatalf("coverage = %.3f, want >= 0.95\n%s", c, p)
	}
	if p.Solves == 0 || p.SolveOps == 0 || p.GateAdvances == 0 {
		t.Fatalf("sync counters empty: solves=%d ops=%d gates=%d", p.Solves, p.SolveOps, p.GateAdvances)
	}
	var pubs, flushes uint64
	for i := range p.Shards {
		pubs += p.Shards[i].Publishes
		flushes += p.Shards[i].InboxFlushes
	}
	if pubs == 0 || flushes == 0 {
		t.Fatalf("shard counters empty: pubs=%d flushes=%d", pubs, flushes)
	}
	if p.SyncOps() == 0 {
		t.Fatal("SyncOps = 0")
	}
	if !strings.Contains(p.String(), "horizon wait") {
		t.Fatalf("report missing watermark phases:\n%s", p)
	}
}

// BenchmarkWindowSync compares the synchronization schemes on the torture
// workload — the sync-op reduction is the point, so the benchmark also
// reports it per scheme.
func BenchmarkWindowSync(b *testing.B) {
	for _, bc := range []struct {
		name string
		mode sim.SyncMode
	}{{"barrier", sim.SyncBarrier}, {"watermark", sim.SyncWatermark}} {
		b.Run(bc.name, func(b *testing.B) {
			var ops, cycles uint64
			for i := 0; i < b.N; i++ {
				e := sim.NewShardedEngine(tortureNodes, tortureWindow)
				e.SetSync(bc.mode)
				e.EnableProfiling()
				res := runTorture(e, 0)
				if res.err != nil {
					b.Fatal(res.err)
				}
				ops += e.Profile().SyncOps()
				cycles += uint64(res.now)
			}
			b.ReportMetric(float64(ops)/float64(b.N), "syncops/run")
			b.ReportMetric(float64(ops)/float64(cycles)*1000, "syncops/kcycle")
		})
	}
}
