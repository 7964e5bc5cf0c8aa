package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/sim"
)

// paperLat33 holds the paper's Table 3.3 for reference columns.
var paperLat33 = map[string][3]int{
	"Local read miss, clean in local memory": {24, 27, 11},
	"Local read miss, dirty in remote cache": {100, 143, 53},
	"Remote read miss, clean in home memory": {92, 111, 16},
	"Remote read miss, dirty in home cache":  {100, 145, 53},
	"Remote read miss, dirty in 3rd node":    {136, 191, 61},
}

// table33 measures the no-contention read miss latencies and FLASH PP
// occupancies of Table 3.3 on both machines.
func table33() (string, error) {
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	rows := [][]string{}
	var flashLat, idealLat [arch.NumMissClasses]sim.Cycle
	for _, sc := range core.MissScenarios(&cfg) {
		ci := cfg
		ci.Kind = arch.KindIdeal
		li, _, err := core.ProbeMiss(ci, sc)
		if err != nil {
			return "", fmt.Errorf("ideal %s: %w", sc.Name, err)
		}
		cf := cfg
		cf.Kind = arch.KindFLASH
		lf, occ, err := core.ProbeMiss(cf, sc)
		if err != nil {
			return "", fmt.Errorf("flash %s: %w", sc.Name, err)
		}
		idealLat[sc.Class] = li
		flashLat[sc.Class] = lf
		p := paperLat33[sc.Name]
		rows = append(rows, []string{
			sc.Name,
			fmt.Sprint(li), fmt.Sprintf("(%d)", p[0]),
			fmt.Sprint(lf), fmt.Sprintf("(%d)", p[1]),
			fmt.Sprint(occ), fmt.Sprintf("(%d)", p[2]),
		})
	}
	s := "Table 3.3: memory latencies and PP occupancies, no contention, in cycles\n" +
		"(parenthesized values are the paper's)\n" +
		table([]string{"Operation", "Ideal", "", "FLASH", "", "PP occ", ""}, rows)
	return s, nil
}

// MeasuredLatencies probes the five no-contention miss latencies for CRMT
// computation (memoized).
func MeasuredLatencies(kind arch.MachineKind) ([arch.NumMissClasses]sim.Cycle, error) {
	latMu.Lock()
	defer latMu.Unlock()
	if v, ok := latCache[kind]; ok {
		return v, nil
	}
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	cfg.Kind = kind
	var out [arch.NumMissClasses]sim.Cycle
	for _, sc := range core.MissScenarios(&cfg) {
		l, _, err := core.ProbeMiss(cfg, sc)
		if err != nil {
			return out, err
		}
		out[sc.Class] = l
	}
	latCache[kind] = out
	return out, nil
}

var (
	latMu    sync.Mutex
	latCache = map[arch.MachineKind][arch.NumMissClasses]sim.Cycle{}
)

// table34 reports mean per-handler PP occupancies, gathered from a mixed
// protocol workout (Table 3.4's decomposition).
func table34() (string, error) {
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	m, err := core.New(cfg)
	if err != nil {
		return "", err
	}
	a := cfg.NodeBase(0) + 4*arch.PageSize
	b := cfg.NodeBase(1) + 4*arch.PageSize
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		srcs[i] = &core.ScriptSource{}
	}
	// A scripted medley: local and remote reads and writes, upgrades with
	// invalidations, 3-hop transfers, writebacks via small-cache... use
	// spaced busy periods so each transaction runs contention-free.
	mk := func(refs ...cpu.Ref) *core.ScriptSource { return &core.ScriptSource{Refs: refs} }
	srcs[2] = mk(
		cpu.Ref{Kind: arch.RefWrite, Addr: a, Busy: 4},
		cpu.Ref{Kind: arch.RefRead, Addr: b, Busy: 60000},
	)
	srcs[1] = mk(
		cpu.Ref{Kind: arch.RefRead, Addr: a, Busy: 8000},
		cpu.Ref{Kind: arch.RefWrite, Addr: a, Busy: 8000},
		cpu.Ref{Kind: arch.RefWrite, Addr: b, Busy: 8000},
	)
	srcs[0] = mk(
		cpu.Ref{Kind: arch.RefRead, Addr: a, Busy: 40000},
		cpu.Ref{Kind: arch.RefRead, Addr: b, Busy: 40000},
	)
	if err := m.Run(srcs, 10_000_000); err != nil {
		return "", err
	}
	agg := map[string][2]uint64{}
	for _, n := range m.Nodes {
		counts := n.Magic.HandlerCounts()
		for h, c := range n.Magic.HandlerCycles() {
			v := agg[h]
			v[0] += uint64(c)
			v[1] += counts[h]
			agg[h] = v
		}
	}
	names := make([]string, 0, len(agg))
	for h := range agg {
		names = append(names, h)
	}
	sort.Strings(names)
	rows := [][]string{}
	for _, h := range names {
		v := agg[h]
		rows = append(rows, []string{h, fmt.Sprint(v[1]), fmt.Sprintf("%.1f", float64(v[0])/float64(v[1]))})
	}
	var bld strings.Builder
	bld.WriteString("Table 3.4: PP occupancies per handler (mean cycles per invocation)\n")
	bld.WriteString("(paper's composites: read miss 11, write miss 14+10..15/inval, fwd 3/18,\n")
	bld.WriteString(" cache retrieve 38, reply 2, local WB 10, remote WB 8, hints 7/17+)\n")
	bld.WriteString(table([]string{"Handler", "Count", "Mean cycles"}, rows))
	return bld.String(), nil
}
