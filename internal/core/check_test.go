package core

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
)

// TestCheckCoherenceIdealAllocatesPerCachedLine pins the audit's cost on a
// post-run ideal machine to O(cached lines). Every node reads the same
// `lines` lines homed at node 0, so that home's directory holds `lines`
// entries with four sharers each; an audit that copies the directory once
// per cached line allocates lines*lines sharer slices and trips the bound
// by two orders of magnitude.
func TestCheckCoherenceIdealAllocatesPerCachedLine(t *testing.T) {
	const lines = 256
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindIdeal
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 4 << 20
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		refs := make([]cpu.Ref, lines)
		for l := range refs {
			refs[l] = cpu.Ref{Kind: arch.RefRead, Addr: cfg.NodeBase(0) + arch.Addr(l*arch.LineSize), Busy: 4}
		}
		srcs[i] = &ScriptSource{Refs: refs}
	}
	if err := m.Run(srcs, 10_000_000); err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, n := range m.Nodes {
		cached += len(n.CPU.Cache.Lines())
	}
	if cached != lines*cfg.Nodes {
		t.Fatalf("cached copies = %d, want %d", cached, lines*cfg.Nodes)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := m.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(4*cached + 64); allocs > limit {
		t.Fatalf("CheckCoherence: %.0f allocations for %d cached copies of %d lines (limit %.0f): cost is not O(cached lines)", allocs, cached, lines, limit)
	}
}
