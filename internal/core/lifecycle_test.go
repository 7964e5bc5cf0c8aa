package core

import (
	"runtime"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// lifecycleAlloc returns the bytes allocated by one machine's whole
// lifecycle — New, a short run touching local and remote lines on every
// node, Snapshot, Restore, Reset — at the given memory size per node.
func lifecycleAlloc(t *testing.T, memBytesPerNode int) uint64 {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = memBytesPerNode
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		self, next := arch.NodeID(i), arch.NodeID((i+1)%cfg.Nodes)
		srcs[i] = &ScriptSource{Refs: []cpu.Ref{
			{Kind: arch.RefWrite, Addr: cfg.NodeBase(self) + 4*arch.PageSize, Busy: 4},
			{Kind: arch.RefRead, Addr: cfg.NodeBase(next) + 8*arch.PageSize, Busy: 4},
			{Kind: arch.RefRead, Addr: cfg.NodeBase(next) + arch.Addr(memBytesPerNode) - arch.LineSize, Busy: 4},
		}}
	}
	if err := m.Run(srcs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	m.Reset()

	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLifecycleCostIndependentOfMemorySize is the deterministic guard on
// O(touched) machine lifecycles: building, snapshotting, restoring and
// resetting a machine configured with 16x the memory must allocate less
// than twice as much. Any dense per-node structure sized by the configured
// memory (an eagerly allocated directory, a deep-copied snapshot) scales
// the total linearly and trips it.
func TestLifecycleCostIndependentOfMemorySize(t *testing.T) {
	lifecycleAlloc(t, 4<<20) // populate the process-wide program and image caches
	lifecycleAlloc(t, 64<<20)
	small := lifecycleAlloc(t, 4<<20)
	large := lifecycleAlloc(t, 64<<20)
	t.Logf("lifecycle allocations: %d KB at 4 MB/node, %d KB at 64 MB/node", small>>10, large>>10)
	if large >= 2*small {
		t.Errorf("lifecycle allocated %d bytes at 64 MB/node, %d at 4 MB/node: want less than 2x", large, small)
	}
}

// TestSnapshotNeedsARun pins that a machine that has not run since New or
// Reset has no pause point to capture: its processors are neither paused
// nor finished.
func TestSnapshotNeedsARun(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot of a machine that never ran succeeded")
	}
	if err := m.Run([]cpu.RefSource{&ScriptSource{}, &ScriptSource{}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot after a run: %v", err)
	}
	m.Reset()
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot of a machine reset since its run succeeded")
	}
}

// TestRunNeedsUnfinishedProcessors pins that Run refuses a machine whose
// processors finished an earlier run, directly or through a restored
// snapshot: Elapsed would otherwise mix that run's finish times with this
// run's clock.
func TestRunNeedsUnfinishedProcessors(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty := func() []cpu.RefSource { return []cpu.RefSource{&ScriptSource{}, &ScriptSource{}} }
	if err := m.Run(empty(), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(empty(), 0); err == nil {
		t.Fatal("second Run without Reset succeeded")
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if err := m.Run(empty(), 0); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	m.Reset()
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(empty(), 0); err == nil {
		t.Fatal("Run after restoring a finished snapshot succeeded")
	}
}

// TestShardedWorkerRule pins the sharded engine's one worker rule: a
// traced or sampled machine runs one worker, and detaching the tracer gives
// the pool back unless sampling still needs one worker.
func TestShardedWorkerRule(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		cfg := arch.DefaultConfig()
		cfg.Nodes, cfg.Engine = 4, arch.EngineSharded
		if sampled {
			cfg.Sample = arch.DefaultSampleSpec()
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		se := m.Eng.(*sim.ShardedEngine)
		untraced := 0
		if sampled {
			untraced = 1
		}
		check := func(state string, want int) {
			if se.Workers != want {
				t.Errorf("sampled=%v, %s: Workers = %d, want %d", sampled, state, se.Workers, want)
			}
		}
		check("built", untraced)
		m.SetTracer(trace.New(&trace.Buffer{}))
		check("traced", 1)
		m.SetTracer(nil)
		check("tracer detached", untraced)
	}
}

// newResetAlloc returns the bytes allocated by New and one Reset of cfg's
// machine.
func newResetAlloc(t *testing.T, cfg arch.Config) (newBytes, total uint64) {
	t.Helper()
	var before, built, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	m.Reset()
	runtime.ReadMemStats(&after)
	return built.TotalAlloc - before.TotalAlloc, after.TotalAlloc - before.TotalAlloc
}

// TestMachineCostIndependentOfCacheSize is the guard on cache tags
// materialized per set group: New plus one Reset of a 16-node machine with
// 16 MB caches must allocate less than twice as much as with 64 KB caches.
// Dense tag arrays, sized by the configured cache, scale the total
// linearly and trip it. It also logs New with 1 MB caches on 16 nodes and
// at the explore sweep's base point (4 nodes, 4 MB per node).
func TestMachineCostIndependentOfCacheSize(t *testing.T) {
	at := func(cacheBytes int) arch.Config {
		cfg := arch.DefaultConfig()
		cfg.CacheSize = cacheBytes
		cfg.MemBytesPerNode = 4 << 20
		return cfg
	}
	newResetAlloc(t, at(64<<10)) // populate the process-wide program and image caches
	_, small := newResetAlloc(t, at(64<<10))
	_, large := newResetAlloc(t, at(16<<20))
	new16, _ := newResetAlloc(t, at(1<<20))
	explore := at(1 << 20)
	explore.Nodes = 4
	newResetAlloc(t, explore)
	base, _ := newResetAlloc(t, explore)
	t.Logf("New+Reset, 16 nodes: %d KB at 64 KB caches, %d KB at 16 MB caches; New, 1 MB caches: %d KB at 16 nodes, %d KB at the explore base point (4 nodes)",
		small>>10, large>>10, new16>>10, base>>10)
	if large >= 2*small {
		t.Errorf("New+Reset allocated %d bytes at 16 MB caches, %d at 64 KB caches: want less than 2x", large, small)
	}
}
