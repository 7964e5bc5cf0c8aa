// Command bench is the repository benchmark: four workloads, end-to-end host
// metrics per FLASH+ideal pair or per design-space sweep, and per-layer
// attribution of where that host time goes. README.md explains the choices;
// BENCHMARK.json at the repository root names what the driver gates on.
//
//	go run ./bench                               all workloads, both passes, a table
//	go run ./bench -workload lu_hit -out r.json  one workload, results to r.json
//	go run ./bench -compare A.json B.json        two result files side by side
//
// The driver's form runs one pass of one workload and ends with one JSON line:
//
//	bench --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(sweepChildMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// results is the file -out writes and -compare reads.
type results struct {
	Command   string                `json:"command"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Workloads map[string]*runResult `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+workloadNames())
	seed := fs.Int64("seed", 1, "picks the leg order and the probes' address streams")
	seconds := fs.Float64("seconds", 40, "how long each pass measures")
	tracePass := fs.String("trace", "both", "pass to run: 0 (end-to-end, observers off), 1 (per-layer), both")
	out := fs.String("out", "", "write the results as JSON to this file")
	detail := fs.String("detail", "", "single pass: also write the full result as JSON to this file")
	dir := fs.String("dir", filepath.Join("bench", "results"), "directory for stage spans and CPU profiles")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}

	if *tracePass == "0" || *tracePass == "1" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q (valid: %s)", *name, workloadNames()))
		}
		res, err := singlePass(w, options{seed: *seed, seconds: *seconds, traced: *tracePass == "1", outDir: *dir})
		if err != nil {
			return fail(err)
		}
		if *detail != "" {
			if err := writeJSON(*detail, res); err != nil {
				return fail(err)
			}
		}
		printPass(stdout, res)
		return 0
	}
	if *tracePass != "both" {
		return fail(fmt.Errorf("-trace must be 0, 1 or both"))
	}

	var todo []workloadDef
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workloadDef{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q (valid: all, %s)", *name, workloadNames()))
	}
	all := &results{Command: "go run ./bench " + strings.Join(args, " "), Seed: *seed, Seconds: *seconds, Workloads: map[string]*runResult{}}
	for _, w := range todo {
		res, err := bothPasses(w, *seed, *seconds, *dir, stderr)
		if err != nil {
			return fail(err)
		}
		all.Workloads[w.Name] = res
		printWorkload(stdout, res)
	}
	if *out != "" {
		if err := writeJSON(*out, all); err != nil {
			return fail(err)
		}
	}
	for _, res := range all.Workloads {
		if res.Failed > 0 {
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.Name)
	}
	return strings.Join(n, ", ")
}

// singlePass measures one workload in this process, the way the driver and
// bothPasses invoke it.
func singlePass(w workloadDef, o options) (*runResult, error) {
	runtime.GOMAXPROCS(benchProcs)
	// The machine's Auto settings read these; the sweep builds Auto configs.
	for _, v := range []string{"FLASHSIM_ENGINE", "FLASHSIM_ENGINE_SYNC", "FLASHSIM_PP_DISPATCH", "FLASHSIM_SAMPLE"} {
		os.Unsetenv(v)
	}
	return newRunner(w).run(o)
}

// bothPasses runs the untraced and the traced pass of one workload, each in
// a child process of its own so peak RSS and GC state belong to that pass,
// and merges them.
func bothPasses(w workloadDef, seed int64, seconds float64, dir string, stderr io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var merged *runResult
	for _, pass := range []string{"0", "1"} {
		tmp := filepath.Join(dir, fmt.Sprintf(".%s.trace%s.json", w.Name, pass))
		fmt.Fprintf(stderr, "bench: %s, pass %s ...\n", w.Name, pass)
		cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", pass, "-dir", dir, "-detail", tmp)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s pass %s: %w", w.Name, pass, err)
		}
		var res runResult
		err := readJSON(tmp, &res)
		os.Remove(tmp)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = &res
			continue
		}
		merged.Layers = res.Layers
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		merged.Failures = append(merged.Failures, res.Failures...)
		merged.Host.Noisy = merged.Host.Noisy || res.Host.Noisy
		merged.Host.LoadEnd = res.Host.LoadEnd
		merged.E2E["failed_frac"] = summarize("frac", []float64{float64(merged.Failed) / float64(merged.Attempted)})
	}
	return merged, nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// driverLine is the last line of a single pass: the driver's result format.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printPass prints every metric of the pass by name with its unit, then the
// driver's line: the gated end-to-end metrics of an untraced pass, every
// per-layer metric of a traced one.
func printPass(w io.Writer, res *runResult) {
	printWorkload(w, res)
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Layers}
	if !res.Traced {
		line.Metrics = map[string]metric{}
		for _, d := range gated {
			line.Metrics[d.Name] = metric{Value: res.E2E[d.Name].Median, Unit: d.Unit}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		panic(err) // a struct of numbers, strings and bools always marshals
	}
	fmt.Fprintf(w, "%s\n", buf)
}

func printWorkload(w io.Writer, res *runResult) {
	state := ""
	if res.Host.Noisy {
		state = "  NOISY (load exceeded nproc)"
	}
	fmt.Fprintf(w, "== %s  seed %d  first pair %s-first  reps %d  load %.2f→%.2f%s\n",
		res.Workload, res.Seed, map[bool]string{true: "FLASH", false: "ideal"}[res.FlashFirst],
		res.Reps, res.Host.LoadStart, res.Host.LoadEnd, state)
	fmt.Fprintf(w, "   go %s  GOMAXPROCS %d  nproc %d  rev %s  checks %d failed %d\n",
		res.Host.GoVersion, res.Host.GOMAXPROCS, res.Host.NumCPU, res.Host.GitRev, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, d := range append(append([]metricDef(nil), gated...), derived...) {
		v, ok := res.E2E[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-32s %14.6g %-8s q1 %.6g q3 %.6g min %.6g max %.6g n %d maxdev %.1f%%\n",
			d.Name, v.Median, v.Unit, v.Q1, v.Q3, v.Min, v.Max, v.N, v.MaxDevPct)
	}
	if len(res.E2E) > 0 && res.Unvalidated {
		fmt.Fprintf(w, "   %-32s %14s          no paper value in the repo for this workload\n", "paper_gap_pts", "unvalidated")
	}
	names := make([]string, 0, len(res.Layers))
	for n := range res.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", n, res.Layers[n].Value, res.Layers[n].Unit)
	}
}
