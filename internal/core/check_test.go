package core

import (
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/protocol"
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

// TestCheckCoherenceNamesCorruptFreeList is the pool audit's mutation
// check: after a clean run, one node's free-list head is made to link to
// itself, and CheckCoherence must fail naming that node.
func TestCheckCoherenceNamesCorruptFreeList(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 1 << 20
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		srcs[i] = &ScriptSource{Refs: []cpu.Ref{
			{Kind: arch.RefRead, Addr: cfg.NodeBase(2) + arch.Addr(i*arch.LineSize), Busy: 4},
		}}
	}
	if err := m.Run(srcs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	pp := m.Nodes[2].Magic.PP
	head := pp.Reg(protocol.FreeHeadReg)
	*pp.Mem.Word(uint64(m.Prog.Layout.PtrBase)/8 + head) = head << protocol.NextPos
	err = m.CheckCoherence()
	if err == nil || !strings.HasPrefix(err.Error(), "node 2: ") || !strings.Contains(err.Error(), "free list") {
		t.Fatalf("CheckCoherence after corrupting node 2's free list = %v; want a node 2 free-list error", err)
	}
}
