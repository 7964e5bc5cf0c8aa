// Flashsim runs one workload on a simulated FLASH or idealized machine and
// prints the full statistics report.
//
// Usage:
//
//	flashsim [-machine flash|ideal] [-app fft] [-procs 16] [-cache 1048576]
//	         [-scale 4] [-placement rr|ft|node0] [-nospec] [-ppmode dual|single|dlx]
//	         [-engine seq|sharded] [-engine-sync barrier|watermark]
//	         [-net uniform|mesh]
//	         [-protocol dynptr|bitvec] [-membytes bytes]
//	         [-mdc bytes] [-pp-clock-div N] [-net-queue-cap N]
//	         [-sample default|detail/stride[/warmup]] [-limit cycles]
//	         [-json] [-trace out.jsonl]
//	         [-trace-format jsonl|chrome] [-occ-window N]
//	         [-metrics] [-metrics-out metrics.json] [-pprof dir]
//
// -json prints the statistics report as JSON on stdout (progress goes to
// stderr). -trace streams every simulation event to the named file, either as
// JSON Lines (one event per line) or, with -trace-format chrome, as a Chrome
// trace-event file loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// -metrics prints the engine's host-cost attribution (window execution,
// barrier wait, outbox drain, merge) to stderr after the run; -metrics-out
// additionally writes the full metrics registry snapshot as JSON. Both are
// purely observational: simulated cycles are bit-identical with metrics on
// or off. -pprof captures cpu.pprof and heap.pprof into the given directory.
// A run stopped by -limit or a deadlock fails with core.Machine.Run's error,
// which carries every node's in-flight state: a cpu and, on FLASH, a magic
// line per node, naming any handler in flight, its message and its wait.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/cliutil"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/stats"
	"flashsim/internal/trace"
	"flashsim/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "flashsim: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command. Every failure returns through it, so the
// deferred closes below (pprof capture, trace sink) run before main exits: a
// run that dies on the cycle limit or in verification — the ones worth
// tracing and profiling — still leaves a complete trace file and profiles.
func run() (runErr error) {
	machine := flag.String("machine", "flash", "machine kind: flash or ideal")
	app := flag.String("app", "fft", "workload: barnes fft lu mp3d ocean os radix")
	procs := flag.Int("procs", 16, "number of processors")
	cache := flag.Int("cache", 1<<20, "processor cache bytes")
	scale := flag.Int("scale", 4, "problem size divisor (1 = paper size)")
	placement := flag.String("placement", "ft", "page placement: rr, ft, node0")
	nospec := flag.Bool("nospec", false, "disable speculative memory reads")
	ppmode := flag.String("ppmode", "dual", "PP mode: dual, single, dlx")
	engine := flag.String("engine", "seq", "event engine: seq or sharded (host speed only; simulated results are identical)")
	engineSync := flag.String("engine-sync", "barrier", "sharded engine synchronization: barrier or watermark (host speed only; simulated results are identical)")
	netModel := flag.String("net", "uniform", "network latency model: uniform (paper average) or mesh (per-pair 2-D mesh transit; changes simulated timing)")
	sample := flag.String("sample", "", "sampled execution schedule: off, default, or detail/stride[/warmup] cycles (changes simulated timing; report gains an extrapolated estimate)")
	proto := flag.String("protocol", "dynptr", "coherence protocol: dynptr, bitvec")
	membytes := flag.Int("membytes", 8<<20, "memory bytes per node")
	mdc := flag.Int("mdc", 0, "MAGIC data cache bytes (0 = paper default)")
	ppClockDiv := flag.Int("pp-clock-div", 0, "PP clock divisor vs the 100 MHz system clock (0 = 1, full speed)")
	netQueueCap := flag.Int("net-queue-cap", 0, "MAGIC outgoing network queue entries (0 = paper default 16)")
	jsonOut := flag.Bool("json", false, "emit the statistics report as JSON on stdout")
	traceFile := flag.String("trace", "", "write a simulation event trace to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl or chrome")
	occWindow := flag.Uint64("occ-window", 0, "sample memory/PP occupancy per window of N cycles (0 = off)")
	limit := flag.Uint64("limit", 0, "abort if the simulation passes this many cycles (0 = no limit)")
	metricsOn := flag.Bool("metrics", false, "collect host-side metrics and print the engine profile to stderr")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry snapshot as JSON to this file (implies -metrics)")
	pprofDir := flag.String("pprof", "", "capture cpu.pprof and heap.pprof into this directory")
	flag.Parse()

	stdoutUser := ""
	if *jsonOut {
		stdoutUser = "-json"
	}
	if err := cliutil.DistinctOutputs(stdoutUser,
		cliutil.OutputFlag{Flag: "-trace", Path: *traceFile},
		cliutil.OutputFlag{Flag: "-metrics-out", Path: *metricsOut},
	); err != nil {
		return err
	}

	cfg := arch.DefaultConfig()
	cfg.Nodes = *procs
	cfg.CacheSize = *cache
	cfg.MemBytesPerNode = *membytes
	cfg.Speculation = !*nospec
	switch *machine {
	case "flash":
		cfg.Kind = arch.KindFLASH
	case "ideal":
		cfg.Kind = arch.KindIdeal
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	switch *placement {
	case "rr":
		cfg.Placement = arch.PlaceRoundRobin
	case "ft":
		cfg.Placement = arch.PlaceFirstTouch
	case "node0":
		cfg.Placement = arch.PlaceNodeZero
	default:
		return fmt.Errorf("unknown placement %q", *placement)
	}
	var bad [9]error
	cfg.Engine, bad[0] = arch.ParseEngineKind(*engine)
	cfg.EngineSync, bad[1] = arch.ParseEngineSync(*engineSync)
	cfg.NetModel, bad[2] = arch.ParseNetModel(*netModel)
	cfg.Sample, bad[3] = arch.ParseSampleSpec(*sample)
	cfg.Protocol, bad[4] = arch.ParseProtocol(*proto)
	cfg.PPMode, bad[5] = arch.ParsePPMode(*ppmode)
	if *scale < 1 {
		bad[6] = fmt.Errorf("-scale %d: must be at least 1", *scale)
	}
	if *mdc < 0 {
		bad[7] = fmt.Errorf("-mdc %d: must not be negative", *mdc)
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		bad[8] = fmt.Errorf("-trace-format %q: want jsonl or chrome", *traceFormat)
	}
	if err := errors.Join(bad[:]...); err != nil {
		return err
	}
	if *mdc > 0 {
		cfg.MDCSize = *mdc
	}
	cfg.PPClockDiv = *ppClockDiv
	cfg.NetQueueCap = *netQueueCap

	prof, err := cliutil.StartPprof(*pprofDir)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil && runErr == nil {
			runErr = fmt.Errorf("pprof: %w", err)
		}
	}()
	hostBefore := metrics.ReadHost()
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if *metricsOn || *metricsOut != "" {
		reg = metrics.NewRegistry()
		m.EnableMetrics(reg)
	}
	var sinks []trace.Sink
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		var sink trace.Sink = trace.NewJSONLSink(f)
		if *traceFormat == "chrome" {
			sink = trace.NewChromeSink(f)
		}
		sinks = append(sinks, sink)
	}
	var occ *trace.Occupancy
	if *occWindow != 0 {
		occ = trace.NewOccupancy(*occWindow)
		sinks = append(sinks, occ)
	}
	if len(sinks) != 0 {
		tr := trace.New(sinks...)
		defer func() {
			if err := tr.Close(); err != nil && runErr == nil {
				runErr = fmt.Errorf("trace: %w", err)
			}
		}()
		m.SetTracer(tr)
	}
	w := workload.NewWorld(m)
	a, err := buildApp(*app, w, apps.Params{Procs: *procs, Scale: *scale})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := w.Run(a.Run, *limit); err != nil {
		return err
	}
	if err := a.Verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := m.CheckCoherence(); err != nil {
		return fmt.Errorf("coherence: %w", err)
	}
	r := stats.Collect(m)
	if occ != nil {
		r.AddOccupancy(occ)
	}
	if reg != nil {
		host := metrics.ReadHost().Sub(hostBefore)
		r.Host = &host
		host.Publish(reg, "flashsim_host")
		if p := m.Eng.Profile(); p != nil {
			fmt.Fprint(os.Stderr, p.String())
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
			err = reg.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("metrics: %w", err)
			}
		}
	}
	if *jsonOut {
		fmt.Fprintf(os.Stderr, "%s on %s (scale 1/%d): verified OK, wall %.1fs\n",
			*app, *machine, *scale, time.Since(start).Seconds())
		out, err := r.JSON()
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		_, err = os.Stdout.Write(append(out, '\n'))
		return err
	}
	fmt.Printf("%s on %s (scale 1/%d): verified OK, wall %.1fs\n\n",
		*app, *machine, *scale, time.Since(start).Seconds())
	fmt.Print(r)
	return nil
}

// buildApp is apps.Build with a builder's panic (a data set that does not
// fit in -membytes, say) returned as an error naming the app.
func buildApp(name string, w *workload.World, p apps.Params) (a *apps.App, err error) {
	defer func() {
		if v := recover(); v != nil {
			a, err = nil, fmt.Errorf("%s: %v", name, v)
		}
	}()
	return apps.Build(name, w, p)
}
