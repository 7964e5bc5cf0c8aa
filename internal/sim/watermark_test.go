package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flashsim/internal/sim"
)

// The watermark tests mirror the sharded barrier suite: the watermark
// scheduler must stay bit-identical to the sequential engine for every
// worker count, including when shards run many windows ahead of each other.

func newWatermarkEngine(workers int) *sim.ShardedEngine {
	e := sim.NewShardedEngine(tortureNodes, tortureWindow)
	e.SetSync(sim.SyncWatermark)
	e.Workers = workers
	return e
}

// TestWatermarkDifferentialTorture: watermark mode must be bit-identical to the sequential engine at every pool size.
func TestWatermarkDifferentialTorture(t *testing.T) {
	want := runTorture(sim.NewEngine(), 0)
	for _, workers := range []int{0, 1, 2, tortureNodes} {
		got := runTorture(newWatermarkEngine(workers), 0)
		compareTorture(t, fmt.Sprintf("watermark/workers=%d", workers), want, got)
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
	for _, workers := range []int{1, 2} {
		e := sim.NewShardedEngine(2, 5)
		e.SetSync(sim.SyncWatermark)
		e.Workers = workers
		if got := run(e); got != want {
			t.Fatalf("workers=%d: order %q, want %q", workers, got, want)
		}
	}
}

// runTortureEcho is the echo-chain torture: per-node event chains whose
// deliveries travel at exactly the lookahead and whose handlers echo
// straight back to the sender — the tightest causal loops the lookahead
// permits. It runs with no store-visibility flush at all (no gate caps any
// horizon), and the sparse local chains leave lone event-holders, whose
// horizons would be unbounded without the self round-trip cap.
func runTortureEcho(b sim.Backend) tortureResult {
	logs := make([][]uint64, tortureNodes)
	rngs := make([]uint64, tortureNodes)
	seqs := make([]uint64, tortureNodes)
	for i := range rngs {
		rngs[i] = uint64(0x9e3779b97f4a7c15 * uint64(i+1))
	}
	// send dispatches a minimum-transit delivery src->dst; its handler logs
	// and echoes back to src with depth-1 until the chain dies, producing
	// src->dst->src->... ping-pong at the lookahead bound.
	var send func(src, dst, depth int)
	send = func(src, dst, depth int) {
		s := b.Node(src)
		seqs[src]++
		s.Deliver(s.Now()+tortureWindow, src, dst, seqs[src], func() {
			d := b.Node(dst)
			logs[dst] = append(logs[dst], uint64(d.Now())<<24|uint64(src)<<8|uint64(depth))
			if depth > 0 {
				send(dst, src, depth-1)
			}
		})
	}
	var tick func(i, n int)
	tick = func(i, n int) {
		s := b.Node(i)
		r := xorshift(&rngs[i])
		logs[i] = append(logs[i], uint64(s.Now())<<24|uint64(i)<<16|r&0xffff)
		if r%3 == 0 {
			send(i, int((r>>8)%tortureNodes), int(r>>4%4))
		}
		if n > 0 {
			s.After(1+sim.Cycle(r%499), func() { tick(i, n-1) })
		}
	}
	for i := 0; i < tortureNodes; i++ {
		i := i
		b.Node(i).At(sim.Cycle(1+i), func() { tick(i, tortureSteps/3) })
	}
	res := tortureResult{err: b.Run()}
	res.logs = logs
	res.executed = b.ExecutedEvents()
	for _, s := range seqs {
		res.sends += s
	}
	res.now = b.Now()
	return res
}

// TestWatermarkDifferentialTortureFlushFree pins the self-echo horizon cap
// at torture scale: no flush gate, no limit, sparse events, minimum-transit
// echo chains. Before the cap, a shard alone in holding events ran
// unboundedly far ahead and echoes landed below events it had already run.
func TestWatermarkDifferentialTortureFlushFree(t *testing.T) {
	want := runTortureEcho(sim.NewEngine())
	for _, workers := range []int{1, 2, tortureNodes} {
		got := runTortureEcho(newWatermarkEngine(workers))
		compareTorture(t, fmt.Sprintf("echo/workers=%d", workers), want, got)
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
		got := runTorture(newWatermarkEngine(workers), limit)
		compareTorture(t, "watermark-limit", want, got)
	}
}

// TestWatermarkResumeAfterLimit pins ErrLimit resumability: the queues and
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
// deliveries below it. Node 3's far event must never bound the ring's
// horizons; a scheduler stall would trip the watchdog.
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

// TestWatermarkLookaheadViolationPanics pins the guard rail: the panic must
// name the (src,dst) pair and the lookahead.
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
		for _, want := range []string{"0->1", "at cycle 7", "sent at 5", "below lookahead 10"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q missing %q", msg, want)
			}
		}
	}()
	_ = e.Run()
}

// TestBarrierViolationPanicNamesPair pins the barrier-mode message shape,
// which also names the offending pair and the lookahead.
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
		for _, want := range []string{"0->1", "at cycle 7", "window ending 10", "below lookahead 10"} {
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
// run: burst exec + horizon wait + horizon solve must cover >= 95% of
// engine wall time, and the sync-op counters must be populated.
func TestWatermarkProfileCoverage(t *testing.T) {
	e := newWatermarkEngine(2)
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
	var flushes uint64
	for i := range p.Shards {
		flushes += p.Shards[i].InboxFlushes
	}
	if flushes == 0 {
		t.Fatal("shard inbox flush counters empty")
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
