package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flashsim/internal/apps"
)

// TestMain lets the test binary stand in for the bench binary when a sweep
// re-executes it as a child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(sweepChildMain(spec))
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to a fraction of a second while keeping its shape
// (same application, same cache regime, same code paths).
func tiny(t *testing.T, name string) workloadDef {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.Procs = 4
	w.Scale = map[string]int{"mp3d": 50, "lu": 8, "radix": 64, "fft": 256}[w.App]
	w.Mem = 4 << 20
	if w.Sweep {
		// A sweep costs 289 machine builds however small the problem. (At 2
		// processors the warm and cold sweeps disagree, which the
		// benchmark's own check reports; 4 is the smallest that passes.)
		w.Scale = 1024
	}
	return w
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to what the program
// emits: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %q %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the catalog %d", len(b.EndToEnd), len(gated))
	}
	for i, d := range gated {
		e := b.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, catalog %+v", i, e, d)
		}
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the catalog %d", len(b.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, d := range layers {
		e := b.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, catalog %+v", i, e, d)
		}
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("per_layer name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// lastLine decodes the driver's result line from a pass's output.
func lastLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var l driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return l
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			t.Errorf("%s: %s not emitted", what, n)
		}
		if m.Unit == "" {
			t.Errorf("%s: %s has no unit", what, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of every workload at a
// tiny scale and checks the result lines against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2eNames, layerNames []string
	for _, e := range b.EndToEnd {
		e2eNames = append(e2eNames, e.Name)
	}
	for _, e := range b.PerLayer {
		layerNames = append(layerNames, e.Name)
	}
	dir := t.TempDir()
	for _, def := range workloads {
		w := tiny(t, def.Name)
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := newRunner(w).run(options{seed: 7, seconds: 0.2, traced: traced, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d checks failed: %v", traced, res.Failed, res.Attempted, res.Failures)
				}
				var out bytes.Buffer
				printPass(&out, res)
				line := lastLine(t, out.String())
				if !line.Correct || line.Attempted != res.Attempted {
					t.Errorf("traced=%v: result line %+v disagrees with the run", traced, line)
				}
				if !traced {
					sameNames(t, w.Name+" end_to_end", line.Metrics, e2eNames)
					for n, m := range line.Metrics {
						// CPU time of a millisecond pair can round to zero
						// where the kernel accounts it by ticks.
						if m.Value < 0 || (m.Value == 0 && n != "cpu_s") {
							t.Errorf("%s = %v, want a positive measurement", n, m.Value)
						}
					}
					continue
				}
				sameNames(t, w.Name+" per_layer", line.Metrics, layerNames)
				if c := line.Metrics["bench.span_coverage"].Value; c < 0.95 {
					t.Errorf("stage spans cover %.3f of the pair, want >= 0.95", c)
				}
				if _, err := os.Stat(filepath.Join(dir, w.Name+".spans.json")); err != nil {
					t.Errorf("spans not written: %v", err)
				}
			}
		})
	}
}

// TestCountsRepeatExactly runs the traced pass twice: every simulated count
// must be identical, or a host-only optimisation could not be told from a
// model change.
func TestCountsRepeatExactly(t *testing.T) {
	w := tiny(t, "mp3d_miss")
	var runs [2]map[string]metric
	for i := range runs {
		res, err := newRunner(w).run(options{seed: int64(i), seconds: 0.1, traced: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res.Layers
	}
	checked := 0
	for _, d := range layers {
		if strings.HasPrefix(d.Name, "host.") || (d.Unit != "count" && d.Unit != "cycles") {
			continue
		}
		checked++
		if a, b := runs[0][d.Name].Value, runs[1][d.Name].Value; a != b {
			t.Errorf("%s: %v then %v", d.Name, a, b)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d exact metrics compared", checked)
	}
	if runs[0]["sim.events"].Value == 0 || runs[0]["magic.handlers"].Value == 0 {
		t.Errorf("traced leg counted nothing: %v", runs[0])
	}
}

// TestFailedVerifyIsCounted proves a wrong application result reaches
// failed_frac and the result line instead of being lost.
func TestFailedVerifyIsCounted(t *testing.T) {
	r := newRunner(tiny(t, "lu_hit"))
	r.verify = func(*apps.App) error { return errors.New("deliberately wrong") }
	res, err := r.run(options{seed: 1, seconds: 0.1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.E2E["failed_frac"].Median <= 0 {
		t.Fatalf("failed verify not counted: failed %d of %d, failed_frac %v", res.Failed, res.Attempted, res.E2E["failed_frac"].Median)
	}
	var out bytes.Buffer
	printPass(&out, res)
	if line := lastLine(t, out.String()); line.Correct || line.Failed != res.Failed {
		t.Errorf("result line %+v hides the failure", line)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "points_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) dist { return summarize("s", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) dist { return summarize("s", []float64{m * 0.7, m, m * 1.3}) }
	for _, c := range []struct {
		d    metricDef
		a, b dist
		want string
	}{
		{lower, tight(10), tight(10.5), "same"},
		{lower, tight(10), tight(12), "worse"},
		{lower, tight(10), tight(8), "better"},
		{higher, tight(10), tight(8), "worse"},
		{lower, wide(10), wide(11), "unresolved"},
		{lower, wide(10), wide(30), "worse"}, // wide, but the runs do not interleave
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"flashsim/internal/sim.(*queue).push":                    "sim.cpu_share",
		"flashsim/internal/ppsim.compileSlot.func1.func70":       "ppsim.cpu_share",
		"flashsim/internal/arch.Addr.Line":                       "host.unattributed_share",
		"iter.Pull[go.shape.[]flashsim/internal/cpu.Ref].func2":  "host.coro_share",
		"runtime.coroswitch":                                     "host.coro_share",
		"runtime.mallocgc":                                       "host.runtime_share",
		"internal/runtime/atomic.(*Uint32).CompareAndSwap":       "host.runtime_share",
		"main.(*countSink).Emit":                                 "host.unattributed_share",
		"flashsim/internal/workload.(*Ctx).ReadU":                "workload.cpu_share",
		"flashsim/internal/exp.Explore":                          "exp.cpu_share",
		"flashsim/internal/core.(*Machine).CheckCoherence.func2": "core.cpu_share",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %s, want %s", fn, got, want)
		}
	}
}
