// Package exp regenerates the paper's tables and figures. Each experiment
// declares the simulations it needs and renders rows in the paper's layout
// from their reports; a Plan dedupes the runs of every selected experiment
// and simulates each distinct machine once (plan.go). cmd/flashexp exposes
// the experiments on the command line, and Explore sweeps the MAGIC design
// space on the same executor.
package exp

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
)

// Options tune experiment cost.
type Options struct {
	// Scale multiplies every application's problem-size divisor: 1 runs the
	// paper sizes, larger values shrink the problems. The default (4) keeps
	// the full suite to minutes. A Plan rejects values below 1.
	Scale int
	// Procs overrides the processor count where the paper doesn't fix it.
	Procs int
	// Verify re-checks application results and machine coherence after
	// every run (slower; on by default in tests).
	Verify bool
	// NetModel selects the network latency model every experiment's machines
	// use (the zero value is the paper's uniform average; NetMesh switches
	// to per-pair 2-D mesh transit and changes simulated timing).
	NetModel arch.NetModel
	// Sample, when enabled, runs experiments under the sampled fast-forward
	// schedule (see arch.SampleSpec). Most experiments ignore it; the
	// sampled experiment honors it.
	Sample arch.SampleSpec
	// SampleApps restricts the sampled experiment to these applications
	// (empty = the full Figure 4.1 suite). Sampling schedules are tuned
	// per application in practice (SMARTS picks per-benchmark configs), so
	// scripts pair a spec with the apps it suits.
	SampleApps []string
	// CacheBytes overrides the processor cache size (0 = the paper's 1 MB).
	CacheBytes int
}

// paramsFor is the problem size every experiment runs: Options.Scale on
// procs processors.
func (o Options) paramsFor(procs int) apps.Params {
	return apps.Params{Procs: procs, Scale: o.Scale}
}

// Run is one completed simulation. Its report is everything a reader gets;
// a caller that needs the machine itself takes it through RunAppObserved's
// observe hook.
type Run struct {
	App    string
	Cfg    arch.Config
	Report stats.Report
	// SimWall is the host time spent inside the event loop proper (the
	// workload run), excluding machine construction, result verification,
	// and the post-run coherence audit — the part a sampled schedule can
	// actually shorten.
	SimWall time.Duration
}

// RunApp executes one application on one configuration.
func RunApp(name string, cfg arch.Config, p apps.Params, verify bool) (*Run, error) {
	return RunAppObserved(name, cfg, p, verify, 0, nil)
}

// RunAppObserved is RunApp with a cycle limit (0 = none) and a hook called
// on the freshly built machine before the run starts — the place to attach
// a tracer (core.Machine.SetTracer) and its sinks, an occupancy sink among
// them, without perturbing the simulation itself. When the run itself
// fails (the limit, a deadlock, a thread's panic) it returns the stopped
// machine's partial report along with the error; a failed build, result
// check or coherence audit returns no Run.
//
// It is the one place exp runs a simulation: flashexp's experiments and
// Explore's points are jobs that call it (plan.go). A panic in an app
// builder comes back as the error; a workload thread's panic already comes
// back from World.Run as one, on every engine. A panic elsewhere on a
// sharded engine's own shard goroutine still ends the process.
//
// The report carries no host-cost accounting (Report.Host): the runtime
// counters are process-wide, and exp runs simulations concurrently.
func RunAppObserved(name string, cfg arch.Config, p apps.Params, verify bool, limit uint64, observe func(*core.Machine)) (r *Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			r, err = nil, fmt.Errorf("panic: %v\n%s", v, debug.Stack())
		}
	}()
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if observe != nil {
		observe(m)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build(name, w, p)
	if err != nil {
		return nil, err
	}
	simStart := time.Now()
	runErr := w.Run(app.Run, limit)
	simWall := time.Since(simStart)
	if runErr != nil {
		return &Run{App: name, Cfg: cfg, Report: stats.Collect(m), SimWall: simWall},
			fmt.Errorf("%s on %v: %w", name, cfg.Kind, runErr)
	}
	if verify {
		if err := app.Verify(); err != nil {
			return nil, fmt.Errorf("%s on %v: %w", name, cfg.Kind, err)
		}
		if err := m.CheckCoherence(); err != nil {
			return nil, fmt.Errorf("%s on %v: %w", name, cfg.Kind, err)
		}
	}
	return &Run{App: name, Cfg: cfg, Report: stats.Collect(m), SimWall: simWall}, nil
}

// Slowdown returns FLASH execution time relative to ideal, in percent.
func Slowdown(flash, ideal stats.Report) float64 {
	return 100 * (float64(flash.Elapsed)/float64(ideal.Elapsed) - 1)
}

// baseConfig is the Section 3 machine with a memory size fit for the
// scaled problems, adjusted by the experiment-wide options (network model).
func (o Options) baseConfig(procs int) arch.Config {
	cfg := arch.DefaultConfig()
	if procs > 0 {
		cfg.Nodes = procs
	}
	cfg.MemBytesPerNode = 8 << 20
	cfg.NetModel = o.NetModel
	if o.CacheBytes > 0 {
		cfg.CacheSize = o.CacheBytes
	}
	return cfg
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
