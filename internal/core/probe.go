package core

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/sim"
)

// ScriptSource replays a fixed reference list; it is the trace-driven
// counterpart of the execution-driven workload front end, used by latency
// probes and tests.
type ScriptSource struct {
	Refs []cpu.Ref
	i    int
}

// NextBatch implements cpu.RefSource: the whole remaining script is one
// batch (scripted sources have no thread to hand control back to).
func (s *ScriptSource) NextBatch() ([]cpu.Ref, bool) {
	if s.i >= len(s.Refs) {
		return nil, false
	}
	b := s.Refs[s.i:]
	s.i = len(s.Refs)
	return b, true
}

// ReadDone implements cpu.RefSource (scripted sources carry no thread).
func (s *ScriptSource) ReadDone() {}

// MissScenario describes one row of Table 3.3: scripted setup references
// that put a line into the desired directory/cache state, then a probe read
// whose no-contention latency and protocol-processor occupancy are
// measured.
type MissScenario struct {
	Name  string
	Setup map[arch.NodeID][]cpu.Ref
	Probe arch.NodeID
	Addr  arch.Addr
	Class arch.MissClass
}

// MissScenarios returns the five read miss scenarios of Table 3.3 for a
// machine whose node 0 owns the probed address.
func MissScenarios(cfg *arch.Config) []MissScenario {
	a := cfg.NodeBase(0) + 4*arch.PageSize // a quiet line homed at node 0
	w := func(n arch.NodeID) map[arch.NodeID][]cpu.Ref {
		return map[arch.NodeID][]cpu.Ref{
			n: {{Kind: arch.RefWrite, Addr: a, Busy: 4}},
		}
	}
	return []MissScenario{
		{Name: "Local read miss, clean in local memory", Probe: 0, Addr: a, Class: arch.MissLocalClean},
		{Name: "Local read miss, dirty in remote cache", Setup: w(1), Probe: 0, Addr: a, Class: arch.MissLocalDirty},
		{Name: "Remote read miss, clean in home memory", Probe: 1, Addr: a, Class: arch.MissRemoteClean},
		{Name: "Remote read miss, dirty in home cache", Setup: w(0), Probe: 1, Addr: a, Class: arch.MissRemoteDirtyHome},
		{Name: "Remote read miss, dirty in 3rd node", Setup: w(2), Probe: 1, Addr: a, Class: arch.MissRemoteDirty3rd},
	}
}

// ProbeMiss measures the no-contention latency of sc's probe read (cycles
// from miss detection to the first 8 bytes on the processor bus) and, for
// FLASH machines, the total PP occupancy of all handlers run to satisfy the
// miss. A warm-up read of the adjacent line runs first in both runs so the
// MAGIC data cache holds the directory lines, matching the paper's
// no-contention assumptions; setup and warm-up costs are excluded by
// differencing a warm-up-only run against a warm-up-plus-probe run.
func ProbeMiss(cfg arch.Config, sc MissScenario) (latency, ppOcc sim.Cycle, err error) {
	base, err := probeRun(cfg, sc, false)
	if err != nil {
		return 0, 0, fmt.Errorf("setup run: %w", err)
	}
	full, err := probeRun(cfg, sc, true)
	if err != nil {
		return 0, 0, fmt.Errorf("probe run: %w", err)
	}

	pcpu := full.Nodes[sc.Probe].CPU
	bcpu := base.Nodes[sc.Probe].CPU
	latency = pcpu.Stats.ReadStall - bcpu.Stats.ReadStall
	if pcpu.Stats.ReadMisses != 2 {
		return 0, 0, fmt.Errorf("probe saw %d read misses, want 2", pcpu.Stats.ReadMisses)
	}
	if got := pcpu.Stats.MissClass[sc.Class] - bcpu.Stats.MissClass[sc.Class]; got != 1 {
		return 0, 0, fmt.Errorf("miss not classified as %v (census %v)", sc.Class, pcpu.Stats.MissClass)
	}
	if full.Prog != nil {
		var occ0, occ1 sim.Cycle
		for _, n := range base.Nodes {
			occ0 += n.Magic.PPBusy()
		}
		for _, n := range full.Nodes {
			occ1 += n.Magic.PPBusy()
		}
		ppOcc = occ1 - occ0
	}
	return latency, ppOcc, nil
}

// probeRun is one of ProbeMiss's two runs: sc's setup and the warm-up read,
// then, with probe set, the probe read.
func probeRun(cfg arch.Config, sc MissScenario, probe bool) (*Machine, error) {
	warm := sc.Addr + arch.LineSize // same home, same MDC directory line
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		refs := append([]cpu.Ref(nil), sc.Setup[arch.NodeID(i)]...)
		if arch.NodeID(i) == sc.Probe {
			// Long busy periods let all prior traffic quiesce.
			refs = append(refs, cpu.Ref{Kind: arch.RefRead, Addr: warm, Busy: 8000})
			if probe {
				refs = append(refs, cpu.Ref{Kind: arch.RefRead, Addr: sc.Addr, Busy: 8000})
			}
		}
		srcs[i] = &ScriptSource{Refs: refs}
	}
	if err := m.Run(srcs, 1_000_000); err != nil {
		return nil, err
	}
	return m, nil
}
