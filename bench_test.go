// Benchmarks regenerating each table and figure of the paper, plus
// microbenchmarks of the simulator's hot paths. The experiment benchmarks
// run one full (scaled-down) experiment per iteration and report the
// paper's headline quantity as a custom metric; `go test -bench . -benchtime
// 1x` regenerates everything once.
package flashsim_test

import (
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/exp"
	"flashsim/internal/ppisa"
	"flashsim/internal/ppsim"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/workload"
)

// benchOptions keeps per-iteration cost moderate.
func benchOptions() exp.Options { return exp.Options{Scale: 8, Verify: false} }

// --- Table 3.3: no-contention miss latencies -------------------------------

func BenchmarkTable33(b *testing.B) {
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	scs := core.MissScenarios(&cfg)
	for i := 0; i < b.N; i++ {
		for _, sc := range scs {
			cf := cfg
			cf.Kind = arch.KindFLASH
			lat, _, err := core.ProbeMiss(cf, sc)
			if err != nil {
				b.Fatal(err)
			}
			if sc.Class == arch.MissRemoteClean {
				b.ReportMetric(float64(lat), "remote-clean-cycles")
			}
		}
	}
}

// --- Figures 4.1-4.3: FLASH vs ideal per application -----------------------

func benchPair(b *testing.B, app string, cacheBytes int) {
	o := benchOptions()
	procs := 16
	if app == "os" {
		procs = 8
	}
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = procs
		cfg.MemBytesPerNode = 8 << 20
		cfg.CacheSize = cacheBytes
		if app == "ocean" && cacheBytes == 4<<10 {
			cfg.CacheSize = 16 << 10
		}
		if app == "os" {
			cfg.Placement = arch.PlaceRoundRobin
		}
		f, id := benchRunPair(b, app, cfg, apps.Params{Procs: procs, Scale: o.Scale})
		b.ReportMetric(exp.Slowdown(f.Report, id.Report), "slowdown_%")
		b.ReportMetric(float64(f.Report.Elapsed), "flash_cycles")
	}
}

// benchRunPair runs app on FLASH and then on the ideal machine with
// otherwise identical configuration.
func benchRunPair(b *testing.B, app string, cfg arch.Config, p apps.Params) (flash, ideal *exp.Run) {
	cfg.Kind = arch.KindFLASH
	flash, err := exp.RunApp(app, cfg, p, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Kind = arch.KindIdeal
	ideal, err = exp.RunApp(app, cfg, p, false)
	if err != nil {
		b.Fatal(err)
	}
	return flash, ideal
}

func BenchmarkFig41Barnes(b *testing.B) { benchPair(b, "barnes", 1<<20) }
func BenchmarkFig41FFT(b *testing.B)    { benchPair(b, "fft", 1<<20) }
func BenchmarkFig41LU(b *testing.B)     { benchPair(b, "lu", 1<<20) }
func BenchmarkFig41MP3D(b *testing.B)   { benchPair(b, "mp3d", 1<<20) }
func BenchmarkFig41Ocean(b *testing.B)  { benchPair(b, "ocean", 1<<20) }
func BenchmarkFig41OS(b *testing.B)     { benchPair(b, "os", 1<<20) }
func BenchmarkFig41Radix(b *testing.B)  { benchPair(b, "radix", 1<<20) }

func BenchmarkFig42FFT(b *testing.B)   { benchPair(b, "fft", 64<<10) }
func BenchmarkFig42Ocean(b *testing.B) { benchPair(b, "ocean", 64<<10) }
func BenchmarkFig42Radix(b *testing.B) { benchPair(b, "radix", 64<<10) }

func BenchmarkFig43FFT(b *testing.B)   { benchPair(b, "fft", 4<<10) }
func BenchmarkFig43MP3D(b *testing.B)  { benchPair(b, "mp3d", 4<<10) }
func BenchmarkFig43Ocean(b *testing.B) { benchPair(b, "ocean", 4<<10) }
func BenchmarkFig43Radix(b *testing.B) { benchPair(b, "radix", 4<<10) }

// --- Section 4.3: hot-spot occupancy ----------------------------------------

func BenchmarkSec43Hotspot(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 16
		cfg.MemBytesPerNode = 8 << 20
		cfg.CacheSize = 4 << 10
		cfg.Placement = arch.PlaceNodeZero
		f, id := benchRunPair(b, "fft", cfg, apps.Params{Procs: 16, Scale: o.Scale})
		hot := f.Report.PerNode[0]
		b.ReportMetric(100*sim.Occupancy(hot.PPBusy, f.Report.Elapsed), "hot_pp_occ_%")
		b.ReportMetric(100*sim.Occupancy(hot.MemBusy, f.Report.Elapsed), "hot_mem_occ_%")
		b.ReportMetric(exp.Slowdown(f.Report, id.Report), "slowdown_%")
	}
}

// --- Section 4.5: 64-processor scaling --------------------------------------

func BenchmarkSec45FFT64(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 64
		cfg.MemBytesPerNode = 4 << 20
		f, id := benchRunPair(b, "fft", cfg, apps.Params{Procs: 64, Scale: o.Scale})
		b.ReportMetric(exp.Slowdown(f.Report, id.Report), "slowdown_%")
	}
}

// --- Table 5.1: speculative memory initiation --------------------------------

func BenchmarkTable51FFT(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 16
		cfg.MemBytesPerNode = 8 << 20
		p := apps.Params{Procs: 16, Scale: o.Scale}
		on, err := exp.RunApp("fft", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Speculation = false
		off, err := exp.RunApp("fft", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*on.Report.SpecUseless, "useless_spec_%")
		b.ReportMetric(100*(float64(off.Report.Elapsed)/float64(on.Report.Elapsed)-1), "no_spec_slowdown_%")
	}
}

// --- Section 5.2: MDC stress --------------------------------------------------

func BenchmarkSec52MDCRadix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 1
		cfg.MemBytesPerNode = 32 << 20
		p := apps.Params{Procs: 1, Scale: 2}
		r, err := exp.RunApp("radix", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Report.MDCReadMissRate, "mdc_read_miss_%")
	}
}

// --- Table 5.2 / Section 5.3: PP architecture ---------------------------------

func BenchmarkTable52PPStats(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 16
		cfg.MemBytesPerNode = 8 << 20
		r, err := exp.RunApp("fft", cfg, apps.Params{Procs: 16, Scale: o.Scale}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Report.DualIssueEff, "dual_issue_eff")
		b.ReportMetric(100*r.Report.SpecialUse, "special_use_%")
		b.ReportMetric(r.Report.HandlersPerMiss, "handlers_per_miss")
	}
}

func BenchmarkSec53Ablation(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 16
		cfg.MemBytesPerNode = 8 << 20
		p := apps.Params{Procs: 16, Scale: o.Scale}
		opt, err := exp.RunApp("mp3d", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		cfg.PPMode = arch.PPNoSpecial
		slow, err := exp.RunApp("mp3d", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(slow.Report.Elapsed)/float64(opt.Report.Elapsed)-1), "ablation_slowdown_%")
	}
}

// --- microbenchmarks of simulator hot paths -----------------------------------

func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.At(0, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPPHandler measures raw handler emulation speed on the protocol's
// local-read handler.
func BenchmarkPPHandler(b *testing.B) {
	cfg := arch.DefaultConfig()
	prog, err := protocol.Build(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	env := nopEnv{}
	pp := ppsim.New(prog.Code, int(prog.Layout.MemBytes), ppsim.NewMDC(cfg.MDCSize, cfg.MDCWays), env)
	prog.Layout.InitMemory(pp.Mem, 0, 0, 16)
	pp.Start("pp_init")
	pp.InHeader(ppisa.HdrAddr, 0x8000)
	pp.InHeader(ppisa.HdrDirOff, prog.Layout.DirOffset(0x8000>>7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, _ := pp.Start("pi_get_local"); st != ppsim.StatusDone {
			b.Fatal("handler blocked")
		}
	}
}

type nopEnv struct{}

func (nopEnv) TrySend(ppsim.OutHeader, uint64) bool { return true }
func (nopEnv) MemRead(uint64, uint64)               {}
func (nopEnv) MemWrite(uint64, uint64)              {}
func (nopEnv) MDCFill(uint64, bool, uint64) uint64  { return 29 }

// BenchmarkLockHandoff measures simulated lock throughput end to end.
func BenchmarkLockHandoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 8
		cfg.MemBytesPerNode = 1 << 20
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w := workload.NewWorld(m)
		lock := w.NewLock(0)
		cell := w.AllocOnNode(arch.LineSize, 1)
		err = w.Run(func(c *workload.Ctx) {
			for k := 0; k < 10; k++ {
				lock.Acquire(c)
				c.WriteU(cell, c.ReadU(cell)+1)
				lock.Release(c)
				c.Busy(100)
			}
		}, 100_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Elapsed)/80, "cycles/section")
	}
}

// BenchmarkSimThroughput measures end-to-end simulation speed in simulated
// references per wall second.
func BenchmarkSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 8
		cfg.MemBytesPerNode = 4 << 20
		r, err := exp.RunApp("ocean", cfg, apps.Params{Procs: 8, Scale: 4}, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Report.Refs), "refs")
	}
}

// Keep cpu referenced for the microbenchmark imports.
var _ = cpu.RMWAdd

// BenchmarkProtoCompare measures the bit-vector protocol against dynamic
// pointer allocation on one workload.
func BenchmarkProtoCompare(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 16
		cfg.MemBytesPerNode = 8 << 20
		p := apps.Params{Procs: 16, Scale: o.Scale}
		dyn, err := exp.RunApp("fft", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Protocol = arch.ProtoBitVector
		bv, err := exp.RunApp("fft", cfg, p, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(float64(bv.Report.Elapsed)/float64(dyn.Report.Elapsed)-1), "bitvec_delta_%")
	}
}
