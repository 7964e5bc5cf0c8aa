// Flashexp regenerates the tables and figures of "The Performance Impact of
// Flexibility in the Stanford FLASH Multiprocessor" (ASPLOS 1994).
//
// Usage:
//
//	flashexp [-scale N] [-procs N] [-cache bytes] [-noverify] [-json]
//	         [-net uniform|mesh] [-sample default|detail/stride[/warmup]]
//	         [-sample-apps app,...] [-metrics] [-metrics-out f]
//	         [-pprof dir] <experiment>...
//	flashexp all
//	flashexp explore [-app name] [-scale N] [-procs N]
//	         [-cold] [-cache-dir dir] [-out f] [-table-out f] [-verify]
//
// Experiments: table3.3 table3.4 fig4.1 fig4.2 fig4.3 sec4.3 sec4.5
// table5.1 table5.1small sec5.2 table5.2 table5.3 sec5.3 protocompare
// ablations sampled
//
// -scale multiplies every application's problem-size divisor; -scale 1 runs
// the paper's sizes (slow), the default 4 finishes the full suite in
// minutes. -scale below 1, a negative -procs, or a -cache that is not a
// power-of-two number of two-way sets, is a usage error.
//
// The named experiments are planned together: every simulation they need is
// declared first, each distinct machine and workload is simulated once
// (Table 5.1 re-reads Figure 4.1's FLASH legs, for one) on GOMAXPROCS
// workers, and stderr reports "flashexp: N runs planned, M simulated".
// Experiments print in order, each as soon as it and every earlier one are
// done, so the (N.Ns) in each "==== name (N.Ns) ====" header — and -json's
// wall_seconds — is the wall time since the previous experiment printed,
// not the experiment's own cost. A failed experiment still stops -pprof
// capture and writes -metrics-out before the exit status 1; a usage error
// exits 2.
//
// The explore subcommand sweeps the design space of Chapter 5's flexibility
// knobs (protocol data structure, MAGIC data cache size, PP clock ratio,
// network queue depth, network transit/lookahead window) crossed with the
// host execution axes (engine, sync scheme) and prints a Pareto table of
// slowdown-vs-ideal against a hardware-cost proxy. Every point is the run
// flashsim makes of the same configuration. By default the sweep is
// warm: each distinct simulated configuration runs once, the distinct ones
// concurrently on GOMAXPROCS workers, and points that differ only in host
// axes are served from a content-addressed result cache; -cache-dir keeps
// that cache on disk so repeated sweeps skip simulation entirely. -cold
// simulates every point instead — the result files are byte-identical
// either way:
//
//	flashexp explore -app fft -cache-dir /tmp/fc -out pareto.json
//
// Where the simulator's own host time goes is flashsim's -metrics report,
// e.g. flashsim -app fft -engine sharded -metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/cliutil"
	"flashsim/internal/exp"
	"flashsim/internal/metrics"
)

func main() {
	name, cmd := "flashexp", run
	if len(os.Args) > 1 && os.Args[1] == "explore" {
		name, cmd = "flashexp explore", func() error { return explore(os.Args[2:]) }
	}
	if err := cmd(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a command-line mistake: exit status 2 rather than 1.
type usageError struct{ error }

// run is the experiment command. Every failure returns through it, so the
// deferred pprof stop and metrics write below run before main exits: a
// failing experiment — the one worth profiling — still leaves complete
// profiles and a metrics file.
func run() (runErr error) {
	scale := flag.Int("scale", 4, "problem size divisor (1 = paper sizes)")
	procs := flag.Int("procs", 0, "override processor count (0 = paper defaults)")
	noverify := flag.Bool("noverify", false, "skip result verification after runs")
	jsonOut := flag.Bool("json", false, "emit experiment results as a JSON array on stdout")
	netModel := flag.String("net", "uniform", "network latency model: uniform (paper average) or mesh (changes simulated timing)")
	sample := flag.String("sample", "", "sampled-execution schedule for the sampled experiment: default or detail/stride[/warmup] cycles")
	sampleApps := flag.String("sample-apps", "", "comma-separated app subset for the sampled experiment (empty = full Fig 4.1 suite)")
	cacheBytes := flag.Int("cache", 0, "processor cache size in bytes (0 = paper default 1 MB)")
	metricsOn := flag.Bool("metrics", false, "collect host-side metrics; prints per-experiment host totals to stderr")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file (implies -metrics)")
	pprofDir := flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	stdoutUser := ""
	if *jsonOut {
		stdoutUser = "-json"
	}
	if err := cliutil.DistinctOutputs(stdoutUser,
		cliutil.OutputFlag{Flag: "-metrics-out", Path: *metricsOut},
	); err != nil {
		return usageError{err}
	}

	o := exp.Options{Scale: *scale, Procs: *procs, Verify: !*noverify, CacheBytes: *cacheBytes}
	var bad [5]error
	if *scale < 1 {
		bad[0] = fmt.Errorf("-scale %d: must be at least 1", *scale)
	}
	if *procs < 0 {
		bad[1] = fmt.Errorf("-procs %d: must not be negative", *procs)
	}
	if *cacheBytes != 0 {
		bad[2] = arch.CacheGeometry("-cache", *cacheBytes, "CacheWays", arch.DefaultConfig().CacheWays)
	}
	o.NetModel, bad[3] = arch.ParseNetModel(*netModel)
	o.Sample, bad[4] = arch.ParseSampleSpec(*sample)
	if err := errors.Join(bad[:]...); err != nil {
		return usageError{err}
	}
	if *sampleApps != "" {
		o.SampleApps = strings.Split(*sampleApps, ",")
		// Fail before any simulation starts: a typo'd app name in a long
		// sampled sweep should not surface an hour in.
		if err := apps.ValidateNames(o.SampleApps); err != nil {
			return usageError{fmt.Errorf("-sample-apps: %w", err)}
		}
	}

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: flashexp [-scale N] <experiment>|all ...")
		for _, e := range exp.Experiments() {
			fmt.Fprintln(os.Stderr, "  ", e)
		}
		return usageError{errors.New("no experiment named")}
	}
	if len(names) == 1 && names[0] == "all" {
		names = exp.Experiments()
	}
	plan, err := exp.NewPlan(o, names)
	if err != nil {
		return usageError{err}
	}
	fmt.Fprintf(os.Stderr, "flashexp: %d runs planned, %d simulated\n", plan.Runs(), plan.Simulations())

	prof, err := cliutil.StartPprof(*pprofDir)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil && runErr == nil {
			runErr = fmt.Errorf("pprof: %w", err)
		}
	}()
	var reg *metrics.Registry
	if *metricsOn || *metricsOut != "" {
		reg = metrics.NewRegistry()
		hostBefore := metrics.ReadHost()
		defer func() {
			host := metrics.ReadHost().Sub(hostBefore)
			host.Publish(reg, "flashexp_host")
			fmt.Fprintf(os.Stderr, "flashexp: host totals: wall %.1fs, %d MB allocated, %d GC cycles, %.1fms GC pause\n",
				float64(host.WallNS)/1e9, host.AllocBytes>>20, host.GCCycles, float64(host.GCPauseNS)/1e6)
			if *metricsOut == "" {
				return
			}
			if err := writeSnapshot(reg, *metricsOut); err != nil && runErr == nil {
				runErr = fmt.Errorf("metrics: %w", err)
			}
		}()
	}

	type result struct {
		Name        string  `json:"name"`
		WallSeconds float64 `json:"wall_seconds"`
		Output      string  `json:"output"`
	}
	var results []result
	last := time.Now()
	err = plan.Execute(func(name, out string) {
		wall := time.Since(last).Seconds()
		last = time.Now()
		reg.Set("flashexp_experiment_wall_ns", int64(wall*1e9), "exp", name)
		if *jsonOut {
			results = append(results, result{Name: name, WallSeconds: wall, Output: out})
			fmt.Fprintf(os.Stderr, "flashexp: %s done (%.1fs)\n", name, wall)
			return
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, wall, out)
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return nil
}

// writeSnapshot dumps the registry as indented JSON into path.
func writeSnapshot(reg *metrics.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// explore is the `flashexp explore` subcommand: the design-space sweep
// over flexibility knobs, warm (result cache on) or cold.
func explore(args []string) error {
	fs := flag.NewFlagSet("flashexp explore", flag.ExitOnError)
	app := fs.String("app", "fft", "application to sweep (one of: "+apps.ValidNames()+")")
	scale := fs.Int("scale", 0, "problem size divisor (0 = per-app sweep default)")
	procs := fs.Int("procs", 4, "processor count")
	cold := fs.Bool("cold", false, "simulate every point (no result cache)")
	cacheDir := fs.String("cache-dir", "", "keep the content-addressed result cache in this directory across runs (warm mode only; default: in memory for this run)")
	out := fs.String("out", "", "write the deterministic sweep result JSON to this file (- = stdout)")
	tableOut := fs.String("table-out", "", "write the Pareto table to this file instead of stdout")
	verify := fs.Bool("verify", false, "verify application results at every simulated point")
	fs.Parse(args)
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	if err := apps.ValidateNames([]string{*app}); err != nil {
		return usageError{fmt.Errorf("-app: %w", err)}
	}
	// A "-" value claims stdout inside DistinctOutputs, so a second stdout
	// writer (e.g. -table-out -) is rejected with both flags named.
	if err := cliutil.DistinctOutputs("",
		cliutil.OutputFlag{Flag: "-out", Path: *out},
		cliutil.OutputFlag{Flag: "-table-out", Path: *tableOut},
	); err != nil {
		return usageError{err}
	}

	o := exp.ExploreOptions{
		App:      *app,
		Scale:    *scale,
		Procs:    *procs,
		Warm:     !*cold,
		CacheDir: *cacheDir,
		Verify:   *verify,
	}
	if *cold && *cacheDir != "" {
		fmt.Fprintln(os.Stderr, "flashexp explore: -cache-dir is ignored with -cold")
		o.CacheDir = ""
	}
	start := time.Now()
	res, err := exp.Explore(o)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()

	// When -out is stdout, the human-readable table moves to stderr so the
	// JSON stream stays machine-parseable.
	tableDst := os.Stdout
	if *out == "-" {
		tableDst = os.Stderr
	}
	if *tableOut != "" {
		f, err := os.Create(*tableOut)
		if err != nil {
			return err
		}
		tableDst = f
		defer f.Close()
	}
	pareto := 0
	for _, p := range res.Points {
		if p.Pareto {
			pareto++
		}
	}
	fmt.Fprint(tableDst, res.Table())
	fmt.Fprintf(os.Stderr,
		"flashexp explore: %s scale=%d procs=%d: %d points (%d Pareto), cache %d hits / %d misses, %d machines built, %.1fs\n",
		res.App, res.Scale, res.Procs, len(res.Points), pareto,
		res.CacheHits, res.CacheMisses, res.PoolBuilds, wall)

	if *out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("json: %w", err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}
