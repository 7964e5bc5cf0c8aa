package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
)

// span is one timed interval at a layer boundary. Spans of one repetition
// share Rep; Parent is the enclosing span's ID (0 = none). Times are
// nanoseconds since the recorder started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // -1 = warm-up, -2 = traced, -3 = backend axis
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func (r *recorder) begin(name string, parent, rep int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Rep: rep,
		StartNS: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

func (r *recorder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.workload+".spans.json"), append(buf, '\n'), 0o644)
}

// Stage names, in the order a leg runs them (what cmd/flashsim does).
const (
	stNew      = "core.New"
	stWorld    = "workload.NewWorld"
	stBuild    = "apps.Build"
	stRun      = "World.Run"
	stVerify   = "App.Verify"
	stCoherent = "Machine.CheckCoherence"
	stCollect  = "stats.Collect"
)

// leg is one build → run → verify → audit → collect pass on a fresh machine,
// started from a heap returned to the operating system: what one cmd/flashsim
// process does, minus process start-up and with ppsim's compile cache warm.
type leg struct {
	stage  map[string]time.Duration
	report stats.Report
	events uint64
	m      *core.Machine // kept only for the caller that asked to observe it

	wall      time.Duration
	cpu       usage
	host      metrics.HostDelta
	peakRSSKB int64 // high-water RSS of this leg alone
}

func (l *leg) setup() time.Duration { return l.stage[stNew] + l.stage[stWorld] + l.stage[stBuild] }

// identity is what must repeat exactly from one repetition to the next.
func (l *leg) identity() [3]uint64 {
	return [3]uint64{uint64(l.report.Elapsed), l.events, l.report.Refs}
}

// runner executes legs of one workload and accounts for every check made.
type runner struct {
	w   workloadDef
	rec *recorder
	// verify checks an application's computed result; tests swap it to
	// prove a failed check reaches failed_frac.
	verify func(*apps.App) error

	attempted, failed int
	failures          []string
}

func newRunner(w workloadDef) *runner {
	return &runner{
		w:      w,
		rec:    &recorder{workload: w.Name, t0: time.Now()},
		verify: func(a *apps.App) error { return a.Verify() },
	}
}

func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runLeg runs the workload's application once on a machine built from cfg.
// observe, when non-nil, sees the fresh machine before the run (tracer,
// metrics) and the finished machine stays reachable through leg.m.
func (r *runner) runLeg(name string, cfg arch.Config, parent, rep int, observe func(*core.Machine)) (*leg, error) {
	l := &leg{stage: map[string]time.Duration{}}
	freshHeap()
	u0, h0 := selfUsage(), metrics.ReadHost()
	ls := r.rec.begin(name, parent, rep)
	defer func() {
		l.wall = r.rec.end(ls)
		l.cpu = selfUsage().sub(u0)
		l.host = metrics.ReadHost().Sub(h0)
		l.peakRSSKB = peakRSSKB()
	}()
	stage := func(st string, fn func() error) error {
		id := r.rec.begin(st, ls, rep)
		err := fn()
		l.stage[st] = r.rec.end(id)
		return err
	}

	var m *core.Machine
	var w *workload.World
	var a *apps.App
	if err := stage(stNew, func() (err error) { m, err = core.New(cfg); return }); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if observe != nil {
		observe(m)
		l.m = m
	}
	_ = stage(stWorld, func() error { w = workload.NewWorld(m); return nil })
	if err := stage(stBuild, func() (err error) {
		a, err = apps.Build(r.w.App, w, apps.Params{Procs: r.w.Procs, Scale: r.w.Scale})
		return
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := stage(stRun, func() error { return w.Run(a.Run, 0) }); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	err := stage(stVerify, func() error { return r.verify(a) })
	r.check(err == nil, "%s rep %d: verify: %v", name, rep, err)
	err = stage(stCoherent, m.CheckCoherence)
	r.check(err == nil, "%s rep %d: coherence: %v", name, rep, err)
	_ = stage(stCollect, func() error { l.report = stats.Collect(m); return nil })
	l.events = m.Eng.ExecutedEvents()
	return l, nil
}

// pair is one unit of end-to-end work on a pair workload: the FLASH leg and
// the ideal leg run one after the other, each on a fresh machine. Its costs
// are the sums over its two legs; returning the heap between them is not
// counted, as process exit is not counted for cmd/flashsim.
type pair struct {
	flash, ideal *leg
}

func (p *pair) legs() [2]*leg       { return [2]*leg{p.flash, p.ideal} }
func (p *pair) wall() time.Duration { return p.flash.wall + p.ideal.wall }
func (p *pair) cpu() usage          { return p.flash.cpu.add(p.ideal.cpu) }

// peakRSSKB is the larger of the two legs' high-water marks.
func (p *pair) peakRSSKB() int64 { return max(p.flash.peakRSSKB, p.ideal.peakRSSKB) }

func (p *pair) slowdownPct() float64 {
	return 100 * (float64(p.flash.report.Elapsed)/float64(p.ideal.report.Elapsed) - 1)
}

// coverage is the share of the pairs' wall time spent inside a stage span.
func coverage(pairs []*pair) float64 {
	var in, wall time.Duration
	for _, p := range pairs {
		wall += p.wall()
		for _, l := range p.legs() {
			for _, d := range l.stage {
				in += d
			}
		}
	}
	return float64(in) / float64(wall)
}

func (r *runner) runPair(rep int, flashFirst bool, observe func(*core.Machine)) (*pair, error) {
	p := &pair{}
	id := r.rec.begin("pair", 0, rep)
	defer r.rec.end(id)
	legs := []arch.MachineKind{arch.KindFLASH, arch.KindIdeal}
	if !flashFirst {
		legs[0], legs[1] = legs[1], legs[0]
	}
	for _, kind := range legs {
		l, err := r.runLeg(kind.String(), r.w.config(kind), id, rep, observe)
		if err != nil {
			return nil, err
		}
		if kind == arch.KindFLASH {
			p.flash = l
		} else {
			p.ideal = l
		}
	}
	return p, nil
}

// maxPairs caps the timed pairs of a pass: the millisecond pairs at the
// sweep's base point would otherwise repeat thousands of times without
// tightening any median.
const maxPairs = 32

// checkRepeat asserts a repetition simulated exactly what the reference did.
func (r *runner) checkRepeat(ref, p *pair, rep int) {
	r.check(p.flash.identity() == ref.flash.identity(),
		"rep %d: flash cycles/events/refs %v differ from %v", rep, p.flash.identity(), ref.flash.identity())
	r.check(p.ideal.identity() == ref.ideal.identity(),
		"rep %d: ideal cycles/events/refs %v differ from %v", rep, p.ideal.identity(), ref.ideal.identity())
}

// repeatPairs runs one untimed warm-up pair (it fills ppsim's compile cache
// and pays every first-in-process cost) and then timed pairs until budget is
// spent, starting a pair only while at least half of it fits. The leg order
// alternates by repetition, starting from flashFirst.
func (r *runner) repeatPairs(budget time.Duration, flashFirst bool) (warm *pair, timed []*pair, err error) {
	if warm, err = r.runPair(-1, true, nil); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		p, err := r.runPair(rep, flashFirst == (rep%2 == 0), nil)
		if err != nil {
			return nil, nil, err
		}
		r.checkRepeat(warm, p, rep)
		timed = append(timed, p)
		if time.Since(start)+p.wall()/2 > budget || len(timed) == maxPairs {
			return warm, timed, nil
		}
	}
}

// setupSamples times n FLASH-leg set-ups (core.New + NewWorld + apps.Build),
// the work before the first simulated reference. Like a leg, each starts from
// a heap returned to the operating system: set-up is mostly first touches of
// new memory, and whether the runtime still held the previous sample's pages
// made the median of a pass swing between 18 and 29 ms.
func (r *runner) setupSamples(n int) ([]float64, error) {
	out := make([]float64, 0, n)
	cfg := r.w.config(arch.KindFLASH)
	for i := 0; i < n; i++ {
		freshHeap()
		t := time.Now()
		m, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := apps.Build(r.w.App, workload.NewWorld(m), apps.Params{Procs: r.w.Procs, Scale: r.w.Scale}); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}
