package core

import (
	"sort"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
)

// TestHandlerOccupancies prints mean per-handler PP occupancies (Table 3.4
// diagnostics) for a mixed scripted workload.
func TestHandlerOccupancies(t *testing.T) {
	cfg := testConfig(arch.KindFLASH)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.NodeBase(0) + 4*arch.PageSize
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		srcs[i] = &ScriptSource{}
	}
	srcs[2] = &ScriptSource{Refs: []cpu.Ref{
		{Kind: arch.RefWrite, Addr: a, Busy: 4},
	}}
	srcs[1] = &ScriptSource{Refs: []cpu.Ref{
		{Kind: arch.RefRead, Addr: a, Busy: 8000},  // 3-hop read
		{Kind: arch.RefWrite, Addr: a, Busy: 8000}, // upgrade w/ invals
	}}
	srcs[0] = &ScriptSource{Refs: []cpu.Ref{
		{Kind: arch.RefRead, Addr: a, Busy: 40000}, // local read, dirty remote
	}}
	if err := m.Run(srcs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	agg := map[string][2]uint64{}
	for _, n := range m.Nodes {
		for h, st := range n.Magic.Handlers() {
			v := agg[h]
			v[0] += st.Sum
			v[1] += st.Count
			agg[h] = v
		}
	}
	names := make([]string, 0, len(agg))
	for h := range agg {
		names = append(names, h)
	}
	sort.Strings(names)
	for _, h := range names {
		v := agg[h]
		t.Logf("%-16s count=%2d mean=%5.1f cycles", h, v[1], float64(v[0])/float64(v[1]))
	}
}
