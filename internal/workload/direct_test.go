package workload

import (
	"reflect"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
)

// tape is a thread that keeps a copy of every reference it issues, exactly
// as issued (busy instructions included), so the stream can be replayed
// without the thread. It goes through Ctx.ref like every public operation
// does, so whether a reference retires on the thread (cpu.Hit) or rides a
// batch to the loop is decided by the code under test, not by the test.
type tape struct {
	c    *Ctx
	refs []cpu.Ref
}

func (t *tape) wait(r cpu.Ref) uint64 {
	r.Busy = t.c.busy + 1
	t.refs = append(t.refs, r)
	return t.c.ref(r.Kind, r.RMW, r.Addr, r.WVal, r.Sync)
}

func (t *tape) issue(r cpu.Ref) { t.wait(r) }

// tapeMix is a seeded thread body over every reference kind: data reads,
// writes and fetch-adds on a shared array larger than the cache (evictions,
// writebacks, replacement hints, three-hop misses), then a lock-protected
// counter and a barrier built from sync reads, swaps and sync writes.
func tapeMix(t *tape, nodes, iters int, shared, counters *Array, lock, total, arrivals, sense arch.Addr) {
	c := t.c
	for i := 0; i < iters; i++ {
		r := c.Rand()
		a := shared.Addr(int(r % uint64(shared.Len())))
		switch (r >> 33) % 8 {
		case 0, 1, 2, 3:
			t.wait(cpu.Ref{Kind: arch.RefRead, Addr: a})
		case 4, 5:
			t.issue(cpu.Ref{Kind: arch.RefWrite, Addr: a, WVal: r})
		case 6:
			t.wait(cpu.Ref{Kind: arch.RefRMW, RMW: cpu.RMWAdd, Addr: counters.Addr(int(r % 64)), WVal: 1})
		case 7:
			t.wait(cpu.Ref{Kind: arch.RefRead, Addr: counters.Addr(int(r % 64))})
		}
		c.Busy(int(r>>40) % 24)
	}
	for i := 0; i < 10; i++ {
		for {
			for t.wait(cpu.Ref{Kind: arch.RefRead, Addr: lock, Sync: true}) != 0 {
				c.Busy(16)
			}
			if t.wait(cpu.Ref{Kind: arch.RefRMW, RMW: cpu.RMWSwap, Addr: lock, WVal: 1, Sync: true}) == 0 {
				break
			}
			c.Busy(16)
		}
		v := t.wait(cpu.Ref{Kind: arch.RefRead, Addr: total})
		t.issue(cpu.Ref{Kind: arch.RefWrite, Addr: total, WVal: v + 1})
		t.issue(cpu.Ref{Kind: arch.RefWrite, Addr: lock, Sync: true})
		c.Busy(int(c.Rand() % 48))
	}
	if t.wait(cpu.Ref{Kind: arch.RefRMW, RMW: cpu.RMWAdd, Addr: arrivals, WVal: 1, Sync: true}) == uint64(nodes-1) {
		t.issue(cpu.Ref{Kind: arch.RefWrite, Addr: sense, WVal: 1, Sync: true})
		return
	}
	for t.wait(cpu.Ref{Kind: arch.RefRead, Addr: sense, Sync: true}) != 1 {
		c.Busy(32)
	}
}

type machineOutcome struct {
	Stats    []cpu.Stats
	Elapsed  uint64
	Executed uint64
}

func outcomeOf(t *testing.T, m *core.Machine) machineOutcome {
	t.Helper()
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	o := machineOutcome{Elapsed: uint64(m.Elapsed), Executed: m.Eng.ExecutedEvents()}
	for _, n := range m.Nodes {
		o.Stats = append(o.Stats, n.CPU.Stats)
	}
	return o
}

// TestThreadMatchesScriptedReplay is the differential test of thread-side
// hits. Threads run the seeded mix on a machine (retiring hits on their own
// stack whenever their processor's loop is live) and tape what they issue;
// the tapes are then replayed on a fresh machine through core.ScriptSource,
// which has no thread and so runs every reference on the loop. Every
// per-processor counter and stall total, the elapsed time and the
// executed-event count must be identical.
func TestThreadMatchesScriptedReplay(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := tortureConfig(kind)
			cfg.CacheSize = 4 << 10
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorld(m)
			shared, counters := w.NewArray(4096), w.NewArray(64)
			lock := w.AllocOnNode(arch.LineSize, 1)
			total := w.AllocOnNode(arch.LineSize, 3)
			arrivals, sense := w.AllocOnNode(arch.LineSize, 2), w.AllocOnNode(arch.LineSize, 2)

			tapes := make([]*tape, cfg.Nodes)
			err = w.Run(func(c *Ctx) {
				tp := &tape{c: c}
				tapes[c.ID] = tp
				tapeMix(tp, cfg.Nodes, 2000, shared, counters, lock, total, arrivals, sense)
			}, 200_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := *m.Word(total); got != uint64(cfg.Nodes*10) {
				t.Fatalf("lock-protected counter = %d, want %d", got, cfg.Nodes*10)
			}
			threaded := outcomeOf(t, m)

			m2, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srcs := make([]cpu.RefSource, cfg.Nodes)
			for i, tp := range tapes {
				srcs[i] = &core.ScriptSource{Refs: tp.refs}
			}
			if err := m2.Run(srcs, 200_000_000); err != nil {
				t.Fatal(err)
			}
			scripted := outcomeOf(t, m2)

			if !reflect.DeepEqual(threaded, scripted) {
				for i := range threaded.Stats {
					if !reflect.DeepEqual(threaded.Stats[i], scripted.Stats[i]) {
						t.Errorf("cpu %d:\nthreaded %+v\nscripted %+v", i, threaded.Stats[i], scripted.Stats[i])
					}
				}
				t.Fatalf("threaded run (%d cycles, %d events) diverged from its scripted replay (%d cycles, %d events)",
					threaded.Elapsed, threaded.Executed, scripted.Elapsed, scripted.Executed)
			}
			var refs, misses, wbs, hints uint64
			for _, s := range threaded.Stats {
				refs, misses = refs+s.Refs, misses+s.Misses
				wbs, hints = wbs+s.Writebacks, hints+s.Hints
			}
			if misses == 0 || wbs == 0 || hints == 0 {
				t.Fatalf("mix too tame: %d refs, %d misses, %d writebacks, %d hints", refs, misses, wbs, hints)
			}
		})
	}
}
