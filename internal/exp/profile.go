package exp

import (
	"fmt"
	"strings"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/sim"
)

// This file is the self-profiling harness behind `flashexp profile`: it
// answers where the simulator's *host* time goes, not where simulated time
// goes. Each Figure 4.1 application runs once on the chosen engine with
// engine self-profiling and a metrics registry attached; the report
// attributes wall time to {window execution, barrier wait, outbox drain,
// merge} per shard and charges allocation and GC cost to each app.

// AppProfile is one application's host-cost profile.
type AppProfile struct {
	App  string
	Run  *Run
	// Engine is the engine's phase attribution for this app's FLASH run.
	Engine *sim.EngineProfile
	// Host is the Go-runtime cost of the run (wall, allocs, GC).
	Host *metrics.HostDelta
	// Registry holds the full metrics snapshot for the run.
	Registry *metrics.Registry
}

// ProfileApps profiles the named applications sequentially (parallel runs
// would blur the process-wide runtime counters) on o.Engine; the per-shard
// phase attribution needs arch.EngineSharded.
func ProfileApps(o Options, names []string) ([]*AppProfile, error) {
	out := make([]*AppProfile, 0, len(names))
	for _, name := range names {
		np := 16
		if name == "os" {
			np = 8
		}
		if o.Procs > 0 {
			np = o.Procs
		}
		cfg := o.baseConfig(np)
		cfg.Kind = arch.KindFLASH
		cfg.Engine = o.Engine
		cfg.EngineSync = o.EngineSync
		cfg.Sample = o.Sample
		if name == "os" {
			cfg.Placement = arch.PlaceRoundRobin
		}
		reg := metrics.NewRegistry()
		r, err := RunAppObserved(name, cfg, o.paramsFor(name, np), o.Verify, func(m *core.Machine) {
			if se, ok := m.Eng.(*sim.ShardedEngine); ok && o.EngineWorkers > 0 {
				se.Workers = o.EngineWorkers
			}
			m.EnableMetrics(reg)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, &AppProfile{
			App:      name,
			Run:      r,
			Engine:   r.Machine.Eng.Profile(),
			Host:     r.Report.Host,
			Registry: reg,
		})
	}
	return out, nil
}

// RenderProfiles renders the host-performance report for profiled apps.
func RenderProfiles(profs []*AppProfile) string {
	var b strings.Builder
	b.WriteString("Host-performance profile (FLASH machine)\n\n")
	hdr := []string{"App", "Cycles", "Events", "Wall", "Ev/s", "AllocMB", "GCs", "GCPause", "Coverage"}
	rows := [][]string{}
	for _, p := range profs {
		wall := float64(p.Host.WallNS) / 1e9
		evs := float64(p.Run.Machine.Eng.ExecutedEvents())
		cov := "-"
		if p.Engine != nil {
			cov = fmt.Sprintf("%.1f%%", 100*p.Engine.Coverage())
		}
		rows = append(rows, []string{
			p.App,
			fmt.Sprintf("%d", p.Run.Report.Elapsed),
			fmt.Sprintf("%.0f", evs),
			fmt.Sprintf("%.2fs", wall),
			fmt.Sprintf("%.2gM", evs/wall/1e6),
			fmt.Sprintf("%.1f", float64(p.Host.AllocBytes)/(1<<20)),
			fmt.Sprintf("%d", p.Host.GCCycles),
			fmt.Sprintf("%.1fms", float64(p.Host.GCPauseNS)/1e6),
			cov,
		})
	}
	b.WriteString(table(hdr, rows))
	for _, p := range profs {
		if p.Engine == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s: %s", p.App, p.Engine.String())
	}
	return b.String()
}

// Fig41Apps is the Figure 4.1 suite in the paper's presentation order.
func Fig41Apps() []string {
	return []string{"fft", "lu", "radix", "ocean", "barnes", "mp3d", "os"}
}
