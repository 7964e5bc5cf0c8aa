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

// table33 renders the no-contention read miss latencies and FLASH PP
// occupancies of Table 3.3 on both machines.
func table33(s scores) (string, error) {
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
		row := []string{sc.Name}
		for i, v := range []sim.Cycle{idealLat[sc.Class], flashLat[sc.Class], flashOcc[sc.Class]} {
			metric := []string{"ideal", "FLASH", "PP occ"}[i]
			row = append(row, fmt.Sprint(v), fmt.Sprintf("(%s)", s.paper("table3.3", sc.Name, metric, float64(v))))
		}
		rows = append(rows, row)
	}
	out := "Table 3.3: memory latencies and PP occupancies, no contention, in cycles\n" +
		"(parenthesized values are the paper's)\n" +
		table([]string{"Operation", "Ideal", "", "FLASH", "", "PP occ", ""}, rows)
	return out, nil
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
func table34(s scores) (string, error) {
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
	// The composites this medley measures, by the handler that is each.
	measured := func(row, handler string) *paperRow {
		return s.paper("table3.4", row, "PP occupancy", lat[handler].Mean())
	}
	paper := func(row string) *paperRow { return published("table3.4", row, "PP occupancy") }
	perInval := paper("write miss, per invalidation")
	var bld strings.Builder
	bld.WriteString("Table 3.4: PP occupancies per handler (mean cycles per invocation)\n")
	fmt.Fprintf(&bld, "(paper's composites: read miss %s, write miss %s+%s..%s/inval, fwd %s/%s,\n",
		measured("read miss", "pi_get_local"), paper("write miss"), num(perInval.lo), num(perInval.hi),
		measured("forward to home", "pi_get_remote"), paper("forward to owner"))
	fmt.Fprintf(&bld, " cache retrieve %s, reply %s, local WB %s, remote WB %s, hints %s/%s+)\n",
		measured("cache retrieve", "ni_fwd_get"), measured("reply", "ni_put"), paper("local writeback"),
		paper("remote writeback"), paper("local replacement hint"), paper("remote replacement hint"))
	bld.WriteString(table([]string{"Handler", "Count", "Mean cycles"}, rows))
	return bld.String(), nil
}
