package exp

// Every flashexp experiment is plan, execute, render:
//
//   - plan: each selected experiment, in order, declares the simulations it
//     reads (pl.run, pl.pair) and returns the function that renders its
//     output from them. Runs are deduped by runKey, the resolved machine
//     plus the workload, so an experiment that re-reads another's machines
//     (Table 5.1's speculation-on legs are Figure 4.1's FLASH legs) gets
//     the same job back and nothing is simulated twice.
//   - execute: the distinct jobs run in plan order on min(GOMAXPROCS, jobs)
//     worker goroutines (execute), each on a fresh machine it drops when the
//     job is done; a job keeps only its stats.Report. Explore runs its
//     points on the same executor.
//   - render: on the caller's goroutine, in order. An experiment renders as
//     soon as its own jobs are done, and every earlier experiment has
//     rendered, so output stays progressive. A renderer reads only its
//     jobs' reports: Section 4.3's per-node occupancies are the report's
//     PerNode, Table 5.2's raw PP counters its PP.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
)

// job is one simulation: an application on a configuration. A worker fills
// rep or err and closes done.
type job struct {
	app    string
	cfg    arch.Config
	p      apps.Params
	verify bool

	rep  stats.Report
	err  error
	done chan struct{}
}

func newJob(app string, cfg arch.Config, p apps.Params, verify bool) *job {
	return &job{app: app, cfg: cfg, p: p, verify: verify, done: make(chan struct{})}
}

func (j *job) run() {
	defer close(j.done)
	r, err := RunApp(j.app, j.cfg, j.p, j.verify)
	if err != nil {
		j.err = err
		return
	}
	j.rep = r.Report
}

// runKey is the content address of one simulation: the normalized
// simulated-behavior key (engine, sync and dispatch excluded: they cannot
// change the result) plus the workload identity. It also names Explore's
// on-disk ResultCache entries.
func runKey(cfg arch.Config, app string, p apps.Params) string {
	return fmt.Sprintf("explore-v3|%s|app=%s|scale=%d|procs=%d",
		core.SimKeyFor(cfg), app, p.Scale, p.Procs)
}

// execute simulates jobs in order on min(GOMAXPROCS, len(jobs)) worker
// goroutines and returns at once; each job's done channel closes when its
// result is in. Calling the returned stop leaves the jobs not yet started
// unrun (and their done channels open).
func execute(jobs []*job) (stop func()) {
	var next atomic.Int64
	var stopped atomic.Bool
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		go func() {
			for i := next.Add(1) - 1; i < int64(len(jobs)) && !stopped.Load(); i = next.Add(1) - 1 {
				jobs[i].run()
			}
		}()
	}
	return func() { stopped.Store(true) }
}

// planner collects the runs experiments declare.
type planner struct {
	o        Options
	registry []experiment // experiments, which check (itself in it) declares through the planner
	byKey    map[string]*job
	jobs     []*job // distinct, in first-declared order
	decl     []*job // the current experiment's runs, duplicates included
}

// lookup returns the named experiment.
func (pl *planner) lookup(name string) (experiment, error) {
	for _, e := range pl.registry {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q", name)
}

// run declares one simulation and returns its handle: the job an earlier
// declaration of the same machine and workload made, or a new one.
func (pl *planner) run(app string, cfg arch.Config, p apps.Params) *job {
	key := runKey(cfg, app, p)
	j := pl.byKey[key]
	if j == nil {
		j = newJob(app, cfg, p, pl.o.Verify)
		pl.byKey[key] = j
		pl.jobs = append(pl.jobs, j)
	}
	pl.decl = append(pl.decl, j)
	return j
}

// pair is one application's FLASH/ideal pair.
type pair struct {
	app          string
	flash, ideal *job
}

// pair declares app on FLASH and on the ideal machine with otherwise
// identical configuration.
func (pl *planner) pair(app string, cfg arch.Config, p apps.Params) pair {
	cfg.Kind = arch.KindFLASH
	f := pl.run(app, cfg, p)
	cfg.Kind = arch.KindIdeal
	return pair{app, f, pl.run(app, cfg, p)}
}

// render produces an experiment's output once its runs are done. It
// records the values it measures for paper rows in s (paper.go); s is nil
// when only the output is wanted.
type render func(s scores) (string, error)

// experiment declares its runs on the planner and returns its renderer.
type experiment struct {
	name    string
	declare func(*planner) render
	// scoresFailures marks an experiment whose renderer reports its failed
	// runs itself (check): Execute renders it whatever its runs did.
	scoresFailures bool
}

// experiments is every experiment, in the order `flashexp all` runs them.
var experiments = []experiment{
	{name: "table3.3", declare: func(*planner) render { return table33 }},
	{name: "table3.4", declare: func(*planner) render { return table34 }},
	{name: "fig4.1", declare: fig41},
	{name: "fig4.2", declare: fig42},
	{name: "fig4.3", declare: fig43},
	{name: "sec4.3", declare: sec43},
	{name: "sec4.5", declare: sec45},
	{name: "table5.1", declare: func(pl *planner) render { return table51(pl, 1<<20) }},
	{name: "table5.1small", declare: func(pl *planner) render { return table51(pl, 4<<10) }},
	{name: "sec5.2", declare: sec52},
	{name: "table5.2", declare: func(pl *planner) render { return table52(pl, 1<<20) }},
	{name: "table5.3", declare: func(*planner) render { return table53 }},
	{name: "sec5.3", declare: sec53},
	{name: "protocompare", declare: protoCompare},
	{name: "ablations", declare: ablations},
	// Sampled times its own legs, so it runs them itself (RunApp) when it
	// renders, not on the executor. Run it alone for clean walls: it
	// renders while later experiments' jobs may still be simulating.
	{name: "sampled", declare: func(pl *planner) render { return func(scores) (string, error) { return sampled(pl.o) } }},
	{name: "check", declare: check, scoresFailures: true},
}

// Experiments lists every experiment name, in the order `flashexp all`
// runs them.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Plan is a list of experiments with their runs declared and deduped.
type Plan struct {
	exps []planned
	jobs []*job
	runs int
}

type planned struct {
	experiment
	jobs   []*job // as declared, duplicates included
	render render
}

// NewPlan declares the runs of the named experiments, in order. It fails on
// an unknown name or a Scale below 1.
func NewPlan(o Options, names []string) (*Plan, error) {
	if o.Scale < 1 {
		return nil, fmt.Errorf("scale %d: must be at least 1", o.Scale)
	}
	pl := &planner{o: o, registry: experiments, byKey: map[string]*job{}}
	p := &Plan{}
	for _, name := range names {
		e, err := pl.lookup(name)
		if err != nil {
			return nil, err
		}
		pl.decl = nil
		r := e.declare(pl)
		p.exps = append(p.exps, planned{e, pl.decl, r})
		p.runs += len(pl.decl)
	}
	p.jobs = pl.jobs
	return p, nil
}

// Runs is the number of runs the experiments declared, duplicates included.
func (p *Plan) Runs() int { return p.runs }

// Simulations is the number of distinct runs: the machines Execute builds.
func (p *Plan) Simulations() int { return len(p.jobs) }

// Execute simulates the plan's distinct runs and hands each experiment's
// output to emit, in plan order, as soon as the experiment and every
// earlier one are done. It stops at the first failed experiment (check
// reports its failed runs in its output instead) and returns
// "<experiment>: <app>: <cause>", one line per failed application (its
// first failed run in declaration order), in declaration order. Jobs
// not yet started then never start; it does not wait for running ones: a
// later experiment's run may not terminate (sec4.5's 64-processor Ocean
// leg livelocks today).
func (p *Plan) Execute(emit func(name, out string)) error {
	defer execute(p.jobs)()
	for _, e := range p.exps {
		var errs []error
		failed := map[string]bool{}
		for _, j := range e.jobs {
			<-j.done
			if j.err != nil && !failed[j.app] && !e.scoresFailures {
				failed[j.app] = true
				errs = append(errs, fmt.Errorf("%s: %w", j.app, j.err))
			}
		}
		err := errors.Join(errs...)
		var out string
		if err == nil {
			out, err = e.render(nil)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		emit(e.name, out)
	}
	return nil
}
