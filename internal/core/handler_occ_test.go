package core

import (
	"maps"
	"slices"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
)

// handlerPin is one handler's invocations and total PP occupancy, summed
// over every node.
type handlerPin struct{ count, sum uint64 }

// TestHandlerOccupancies pins each handler's invocation count and total PP
// occupancy (Table 3.4's per-handler numbers) for a scripted medley on the
// default FLASH machine: a remote write, then a 3-hop read and an upgrade
// that invalidates, then a local read of a line dirty in a remote cache. A
// change to a handler's cost, or to which handlers a miss runs, fails it;
// update the pin and say in the change's notes which handlers moved and
// why.
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
	got := map[string]handlerPin{}
	for _, n := range m.Nodes {
		for h, st := range n.Magic.Handlers() {
			v := got[h]
			v.count += st.Count
			v.sum += st.Sum
			got[h] = v
		}
	}
	want := map[string]handlerPin{
		"ni_fwd_get":     {2, 82},
		"ni_get":         {1, 13},
		"ni_getx":        {2, 114},
		"ni_iack":        {1, 7},
		"ni_inval":       {1, 6},
		"ni_put":         {2, 4},
		"ni_putx":        {2, 4},
		"ni_swb":         {2, 99},
		"pi_get_local":   {1, 11},
		"pi_get_remote":  {1, 4},
		"pi_getx_remote": {2, 8},
	}
	if !maps.Equal(got, want) {
		for _, h := range slices.Sorted(maps.Keys(got)) {
			t.Logf("%-16s count=%d sum=%d cycles (pinned %+v)", h, got[h].count, got[h].sum, want[h])
		}
		t.Fatalf("handler invocations and occupancies moved: got %v, pinned %v", got, want)
	}
}
