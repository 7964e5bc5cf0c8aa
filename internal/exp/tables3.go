package exp

import (
	"fmt"
	"strings"
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

// paperLat33 holds the paper's Table 3.3 for reference columns.
var paperLat33 = map[string][3]int{
	"Local read miss, clean in local memory": {24, 27, 11},
	"Local read miss, dirty in remote cache": {100, 143, 53},
	"Remote read miss, clean in home memory": {92, 111, 16},
	"Remote read miss, dirty in home cache":  {100, 145, 53},
	"Remote read miss, dirty in 3rd node":    {136, 191, 61},
}

// table33 renders the no-contention read miss latencies and FLASH PP
// occupancies of Table 3.3 on both machines.
func table33() (string, error) {
	idealLat, _, err := MeasuredLatencies(arch.KindIdeal)
	if err != nil {
		return "", err
	}
	flashLat, flashOcc, err := MeasuredLatencies(arch.KindFLASH)
	if err != nil {
		return "", err
	}
	cfg := probeConfig(arch.KindFLASH)
	rows := [][]string{}
	for _, sc := range core.MissScenarios(&cfg) {
		p := paperLat33[sc.Name]
		rows = append(rows, []string{
			sc.Name,
			fmt.Sprint(idealLat[sc.Class]), fmt.Sprintf("(%d)", p[0]),
			fmt.Sprint(flashLat[sc.Class]), fmt.Sprintf("(%d)", p[1]),
			fmt.Sprint(flashOcc[sc.Class]), fmt.Sprintf("(%d)", p[2]),
		})
	}
	s := "Table 3.3: memory latencies and PP occupancies, no contention, in cycles\n" +
		"(parenthesized values are the paper's)\n" +
		table([]string{"Operation", "Ideal", "", "FLASH", "", "PP occ", ""}, rows)
	return s, nil
}

// probeConfig is the machine the Table 3.3 probes run on.
func probeConfig(kind arch.MachineKind) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	cfg.Kind = kind
	return cfg
}

// MeasuredLatencies probes the five no-contention misses of Table 3.3 on
// one machine kind, for the table itself and for CRMT computation: each
// miss class's latency and PP occupancy (zero on the ideal machine).
// Memoized per kind.
func MeasuredLatencies(kind arch.MachineKind) (lat, ppOcc [arch.NumMissClasses]sim.Cycle, err error) {
	latMu.Lock()
	defer latMu.Unlock()
	if v, ok := latCache[kind]; ok {
		return v[0], v[1], nil
	}
	cfg := probeConfig(kind)
	for _, sc := range core.MissScenarios(&cfg) {
		l, occ, err := core.ProbeMiss(cfg, sc)
		if err != nil {
			return lat, ppOcc, fmt.Errorf("%v %s: %w", kind, sc.Name, err)
		}
		lat[sc.Class], ppOcc[sc.Class] = l, occ
	}
	latCache[kind] = [2][arch.NumMissClasses]sim.Cycle{lat, ppOcc}
	return lat, ppOcc, nil
}

var (
	latMu    sync.Mutex
	latCache = map[arch.MachineKind][2][arch.NumMissClasses]sim.Cycle{} // latencies, PP occupancies
)

// table34 reports mean per-handler PP occupancies, gathered from a mixed
// protocol workout (Table 3.4's decomposition).
func table34() (string, error) {
	cfg := probeConfig(arch.KindFLASH)
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
	rows := [][]string{}
	lat := stats.Collect(m).HandlerLatency
	for _, h := range sortedKeys(lat) {
		rows = append(rows, []string{h, fmt.Sprint(lat[h].Count), fmt.Sprintf("%.1f", lat[h].Mean())})
	}
	var bld strings.Builder
	bld.WriteString("Table 3.4: PP occupancies per handler (mean cycles per invocation)\n")
	bld.WriteString("(paper's composites: read miss 11, write miss 14+10..15/inval, fwd 3/18,\n")
	bld.WriteString(" cache retrieve 38, reply 2, local WB 10, remote WB 8, hints 7/17+)\n")
	bld.WriteString(table([]string{"Handler", "Count", "Mean cycles"}, rows))
	return bld.String(), nil
}
