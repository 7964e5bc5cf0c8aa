package core

import (
	"runtime"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
)

// pingPong scripts rounds of the two most message-heavy misses on a 4-node
// machine: nodes 1 and 2 each own one line homed at node 0, and every round
// each writes its own line (an upgrade miss from the second round on: the
// other's read left it Shared) and then reads the other's (dirty in a third
// node's cache: a 3-hop forwarded read with a sharing writeback). The two
// scripts are mirror images, so their clocks stay in step. The pause between
// misses rides on a read that hits a private line: the run loop executes a
// reference as soon as its busy time is charged, ahead of the engine clock,
// so a miss carrying the pause itself would run before the other node's
// invalidation had arrived.
func pingPong(cfg *arch.Config, rounds int) []cpu.RefSource {
	line := func(k int) arch.Addr { return cfg.NodeBase(0) + 4*arch.PageSize + arch.Addr(k)*arch.LineSize }
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		var refs []cpu.Ref
		if i == 1 || i == 2 {
			own, other := line(i), line(3-i)
			pause := cpu.Ref{Kind: arch.RefRead, Addr: cfg.NodeBase(arch.NodeID(i)) + 4*arch.PageSize, Busy: 4000}
			for r := 0; r < rounds; r++ {
				refs = append(refs, pause, cpu.Ref{Kind: arch.RefWrite, Addr: own, Busy: 4},
					pause, cpu.Ref{Kind: arch.RefRead, Addr: other, Busy: 4})
			}
		}
		srcs[i] = &ScriptSource{Refs: refs}
	}
	return srcs
}

// pingPongConfig is the 4-node machine the script runs on.
func pingPongConfig(kind arch.MachineKind) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = kind
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 4 << 20
	cfg.Engine = arch.EngineSeq
	return cfg
}

// runPingPong builds a machine, runs the script and returns it with the
// number of heap allocations New and Run performed.
func runPingPong(t *testing.T, kind arch.MachineKind, rounds int) (*Machine, uint64) {
	t.Helper()
	cfg := pingPongConfig(kind)
	srcs := pingPong(&cfg, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(srcs, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return m, after.Mallocs - before.Mallocs
}

// TestMissPathDoesNotAllocate is the allocation claim of the pooled miss
// path: once a machine is warm, a further remote-dirty read miss or write
// upgrade miss — four or five handlers, three or four messages, a cache
// intervention — allocates nothing on either machine kind. Differencing a
// short run against a long one cancels construction and warm-up.
func TestMissPathDoesNotAllocate(t *testing.T) {
	const warm, rounds = 100, 1000
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		runPingPong(t, kind, warm) // process-wide caches (protocol program, PP image)
		_, short := runPingPong(t, kind, warm)
		m, long := runPingPong(t, kind, warm+rounds)
		for _, id := range []int{1, 2} {
			st := &m.Nodes[id].CPU.Stats
			if dirty, up := st.MissClass[arch.MissRemoteDirty3rd], st.UpgradeMisses; dirty < warm+rounds-1 || up < warm+rounds-1 {
				t.Fatalf("%v node %d: %d remote-dirty read misses and %d upgrade misses in %d rounds: the script lost step",
					kind, id, dirty, up, warm+rounds)
			}
		}
		misses := float64(4 * rounds) // two nodes, a read miss and an upgrade miss each
		perMiss := (float64(long) - float64(short)) / misses
		t.Logf("%v: %d allocations at %d rounds, %d at %d: %.3f per miss", kind, short, warm, long, warm+rounds, perMiss)
		if perMiss > 0.05 {
			t.Errorf("%v: %.2f allocations per miss on a warm machine, want none (0.05 allows for a ring or pool still growing)", kind, perMiss)
		}
	}
}

// poolSizes lists every controller's free list and every port's send queue.
func poolSizes(m *Machine) (ctl, ports []int) {
	for i, n := range m.Nodes {
		if n.Magic != nil {
			ctl = append(ctl, n.Magic.Evs.Free())
		} else {
			ctl = append(ctl, n.Ideal.Evs.Free())
		}
		ports = append(ports, m.Net.Port(arch.NodeID(i), nil).Evs.Len())
	}
	return ctl, ports
}

// TestPooledEventsSurviveReset pins the pooling contract across Reset: a
// second identical run on the recycled machine reproduces the first run's
// cycle and event counts (nothing simulated leaks through a pooled object),
// leaves every controller's free list and every port's send queue exactly
// as long as the first run did (each holds what was in flight at once, no
// more), and allocates next to nothing: rings, slabs and pooled events all
// kept their capacity. Every node that sends keeps a port queue, and every
// requester's controller keeps a free list (it schedules its processor's
// arrivals and the replies to it); the home, node 0, only talks to the
// network and may pool nothing, and node 3 is idle.
func TestPooledEventsSurviveReset(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		cfg := pingPongConfig(kind)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (elapsed, events uint64, mallocs uint64) {
			srcs := pingPong(&cfg, 300)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := m.Run(srcs, 0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return uint64(m.Elapsed), m.Eng.ExecutedEvents(), after.Mallocs - before.Mallocs
		}
		e1, x1, a1 := run()
		ctl1, ports1 := poolSizes(m)
		m.Reset()
		e2, x2, a2 := run()
		ctl2, ports2 := poolSizes(m)
		if e1 != e2 || x1 != x2 {
			t.Errorf("%v: second run on the Reset machine: %d cycles %d events, first %d cycles %d events", kind, e2, x2, e1, x1)
		}
		for i := range ctl1 {
			if ctl2[i] != ctl1[i] || ports2[i] != ports1[i] || ports1[i] == 0 && i != 3 || ctl1[i] == 0 && i != 0 && i != 3 {
				t.Errorf("%v node %d: controller free list %d and port queue %d after the first run, %d and %d after the second",
					kind, i, ctl1[i], ports1[i], ctl2[i], ports2[i])
			}
		}
		t.Logf("%v: controller lists %v, port queues %v; allocations %d then %d", kind, ctl1, ports1, a1, a2)
		if a2 > a1 || a2 > 100 {
			t.Errorf("%v: second run of 1200 misses allocated %d times, first %d: pooled capacity did not survive Reset", kind, a2, a1)
		}
	}
}

// BenchmarkMissPath times the whole miss path — processor, controller,
// protocol handlers, network, engine — per miss, on the ping-pong script's
// mix of 3-hop remote-dirty reads and write upgrades. scripts/bench.sh
// requires 0 allocs/op of both machine kinds.
func BenchmarkMissPath(b *testing.B) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := pingPongConfig(kind)
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			srcs := pingPong(&cfg, b.N/4+1) // four misses a round
			b.ReportAllocs()
			b.ResetTimer()
			if err := m.Run(srcs, 0); err != nil {
				b.Fatal(err)
			}
		})
	}
}
