package core

import (
	"runtime"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
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
