package main

import (
	"fmt"
	"math"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
	"flashsim/internal/ppisa"
	"flashsim/internal/ppsim"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/workload"
)

// perCall grows n until run(n) — which performs n calls and returns how long
// they took, set-up excluded — lasts at least d, and returns nanoseconds per
// call.
func perCall(d time.Duration, run func(n int) (time.Duration, error)) (float64, error) {
	for n := 64; ; {
		took, err := run(n)
		if err != nil {
			return 0, err
		}
		if took >= d || n >= 1<<28 {
			return ns(took) / float64(n), nil
		}
		grow := 2.0
		if took > 0 {
			grow = math.Min(100, math.Max(1.2*float64(d)/float64(took), 2))
		}
		n = int(float64(n) * grow)
	}
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// oneNodeWorld is the smallest machine a thread can run on.
func oneNodeWorld() (*workload.World, error) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 1
	cfg.MemBytesPerNode = 4 << 20
	cfg.Engine = arch.EngineSeq
	cfg.PPDispatch = arch.PPDispatchCompiled
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return workload.NewWorld(m), nil
}

// threadProbe times body(c, n) run as the only thread of a one-node machine.
func threadProbe(d time.Duration, body func(c *workload.Ctx, base arch.Addr, n int)) (float64, error) {
	return perCall(d, func(n int) (time.Duration, error) {
		w, err := oneNodeWorld()
		if err != nil {
			return 0, err
		}
		base := w.AllocOnNode(probeWords*8, 0)
		t := time.Now()
		err = w.Run(func(c *workload.Ctx) { body(c, base, n) }, 0)
		return time.Since(t), err
	})
}

const probeWords = 64

type nopPPEnv struct{}

func (nopPPEnv) TrySend(ppsim.OutHeader, uint64) bool { return true }
func (nopPPEnv) MemRead(uint64, uint64)               {}
func (nopPPEnv) MemWrite(uint64, uint64)              {}
func (nopPPEnv) MDCFill(uint64, bool, uint64) uint64  { return 29 }

type nopSink struct{}

func (nopSink) FromNet(arch.Msg) {}

// handlerProbe times the protocol's local-read handler, the most dispatched
// one, on a bare PP, as ppsim's own benchmark does.
func handlerProbe(d time.Duration, backend ppsim.Backend, line uint64) (float64, error) {
	cfg := arch.DefaultConfig()
	prog, err := protocol.Build(&cfg)
	if err != nil {
		return 0, err
	}
	pp := ppsim.NewBackend(prog.Code, int(prog.Layout.MemBytes), ppsim.NewMDC(cfg.MDCSize, cfg.MDCWays), nopPPEnv{}, backend)
	prog.Layout.InitMemory(pp.Mem, 0, 0, cfg.Nodes)
	if st, _ := pp.Start("pp_init"); st != ppsim.StatusDone {
		return 0, fmt.Errorf("handler probe: pp_init blocked")
	}
	pp.InHeader(ppisa.HdrAddr, line<<arch.LineShift)
	pp.InHeader(ppisa.HdrDirOff, prog.Layout.DirOffset(line))
	pc, err := pp.EntryPC("pi_get_local")
	if err != nil {
		return 0, err
	}
	return perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if st, _ := pp.StartAt(pc); st != ppsim.StatusDone {
				return 0, fmt.Errorf("handler probe: handler blocked")
			}
		}
		return time.Since(t), nil
	})
}

// sweepBase builds the machine and application of the sweep's base point,
// the configuration the core probes reset, snapshot and restore.
func sweepBase() (*core.Machine, *workload.World, *apps.App, error) {
	sw, _ := findWorkload("explore_sweep")
	m, err := core.New(sw.config(arch.KindFLASH))
	if err != nil {
		return nil, nil, nil, err
	}
	w, a, err := rebuild(m)
	return m, w, a, err
}

// coreProbes times Machine.Reset after a finished run (median of a few,
// since each needs a run first), and Snapshot and Restore at the sweep's
// pause point, all in milliseconds.
func coreProbes(d time.Duration) (resetMS, snapMS, restoreMS float64, err error) {
	m, w, a, err := sweepBase()
	if err != nil {
		return 0, 0, 0, err
	}
	var resets []float64
	for i := 0; i < 7; i++ {
		if err := w.Run(a.Run, 0); err != nil {
			return 0, 0, 0, err
		}
		t := time.Now()
		m.Reset()
		resets = append(resets, ns(time.Since(t))/1e6)
		if w, a, err = rebuild(m); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := w.RunPrefix(a.Run, 20000, 0); err != nil {
		return 0, 0, 0, err
	}
	var snap *core.Snapshot
	took, err := perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if snap, err = m.Snapshot(); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	snapMS = took / 1e6
	m2, _, _, err := sweepBase()
	if err != nil {
		return 0, 0, 0, err
	}
	took, err = perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := m2.Restore(snap); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	})
	return median(resets), snapMS, took / 1e6, err
}

// rebuild binds a fresh world and application to a new or Reset machine.
func rebuild(m *core.Machine) (*workload.World, *apps.App, error) {
	sw, _ := findWorkload("explore_sweep")
	w := workload.NewWorld(m)
	a, err := apps.Build(sw.App, w, apps.Params{Procs: sw.Procs, Scale: sw.Scale})
	return w, a, err
}

// Table 3.3 of the paper: no-contention read-miss latencies in cycles, in
// core.MissScenarios order.
var (
	paperLatFLASH = [5]float64{27, 143, 111, 145, 191}
	paperLatIdeal = [5]float64{24, 100, 92, 100, 136}
)

// lat33ErrPct is the mean |error| of the simulated Table 3.3 latencies
// against the paper's, in percent. Simulated, so it repeats exactly.
func lat33ErrPct() (float64, error) {
	var sum float64
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		paper := paperLatFLASH
		if kind == arch.KindIdeal {
			paper = paperLatIdeal
		}
		cfg := arch.DefaultConfig()
		cfg.Kind = kind
		cfg.Nodes = 4
		cfg.MemBytesPerNode = 4 << 20
		cfg.Engine = arch.EngineSeq
		for i, sc := range core.MissScenarios(&cfg) {
			lat, _, err := core.ProbeMiss(cfg, sc)
			if err != nil {
				return 0, fmt.Errorf("%v %s: %w", kind, sc.Name, err)
			}
			sum += 100 * math.Abs(float64(lat)-paper[i]) / paper[i]
		}
	}
	return sum / 10, nil
}

// runProbes times one call into each layer's public functions for at least d
// each. The seed picks the addresses, lines and destinations they touch.
func runProbes(d time.Duration, seed int64) (map[string]float64, error) {
	r := rng(seed)
	out := map[string]float64{}
	var firstErr error
	put := func(name string, scale, nsPerCall float64, err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		out[name] = nsPerCall / scale
	}

	// workload: one blocking read is one coroutine round trip to the cpu and
	// back; writes ride in batches.
	offs := make([]arch.Addr, 1024)
	for i := range offs {
		offs[i] = arch.Addr(r.next()%probeWords) * 8
	}
	took, err := threadProbe(d, func(c *workload.Ctx, base arch.Addr, n int) {
		for i := 0; i < n; i++ {
			c.ReadU(base + offs[i&1023])
		}
	})
	put("workload.probe_read_rt_ns", 1, took, err)
	took, err = threadProbe(d, func(c *workload.Ctx, base arch.Addr, n int) {
		for i := 0; i < n; i++ {
			c.WriteU(base+offs[i&1023], uint64(i))
		}
		c.ReadU(base) // drain the final batch
	})
	put("workload.probe_write_ns", 1, took, err)

	// cpu: a lookup in a 1 MB two-way cache holding half the probed lines.
	cache := cpu.NewCache(1<<20, 2)
	lines := make([]uint64, 4096)
	for i := range lines {
		lines[i] = r.next() % (1 << 16)
		if i%2 == 0 {
			cache.Fill(lines[i], cpu.Shared)
		}
	}
	var sinkState cpu.LineState
	took, err = perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			sinkState |= cache.Lookup(lines[i&4095])
		}
		return time.Since(t), nil
	})
	probeSink = uint64(sinkState)
	put("cpu.probe_cache_lookup_ns", 1, took, err)

	// sim: schedule-and-dispatch of a local event, then of a cross-node
	// delivery, on the sequential engine.
	took, err = perCall(d, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(3, tick)
			}
		}
		e.At(1, tick)
		t := time.Now()
		err := e.Run()
		return time.Since(t), err
	})
	put("sim.probe_event_ns", 1, took, err)
	took, err = perCall(d, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		left := n
		var seq uint64
		var hop func()
		hop = func() {
			if left--; left > 0 {
				seq++
				e.Deliver(e.Now()+22, 0, 1, seq, hop)
			}
		}
		e.At(1, hop)
		t := time.Now()
		err := e.Run()
		return time.Since(t), err
	})
	put("sim.probe_deliver_ns", 1, took, err)

	// ppsim: one handler under each dispatch backend.
	line := r.next() % 1024
	took, err = handlerProbe(d, ppsim.BackendCompiled, line)
	put("ppsim.probe_handler_ns", 1, took, err)
	took, err = handlerProbe(d, ppsim.BackendInterp, line)
	put("ppsim.probe_handler_interp_ns", 1, took, err)

	// network: a send and its delivery to a sink that drops it.
	dsts := make([]arch.NodeID, 1024)
	for i := range dsts {
		dsts[i] = arch.NodeID(1 + r.next()%15)
	}
	took, err = perCall(d, func(n int) (time.Duration, error) {
		e := sim.NewEngine()
		net := network.New(16, 22)
		for i := 0; i < 16; i++ {
			net.Attach(arch.NodeID(i), nopSink{})
		}
		port := net.Port(0, e)
		left := n
		var send func()
		send = func() {
			for b := 0; b < 8 && left > 0; b++ {
				left--
				port.Send(e.Now(), arch.Msg{Type: arch.MsgGET, Src: 0, Dst: dsts[left&1023], DB: -1})
			}
			if left > 0 {
				e.After(1, send)
			}
		}
		e.At(1, send)
		t := time.Now()
		err := e.Run()
		return time.Since(t), err
	})
	put("network.probe_send_ns", 1, took, err)

	// memsys: a store to a materialised word of the backing store.
	store := memsys.NewStore(1 << 20)
	idx := make([]uint64, 4096)
	for i := range idx {
		idx[i] = r.next() % (1 << 20)
		*store.Word(idx[i]) = 1
	}
	took, err = perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			*store.Word(idx[i&4095]) = uint64(i)
		}
		return time.Since(t), nil
	})
	put("memsys.probe_store_word_ns", 1, took, err)

	// protocol: assembling and scheduling the handler program, paid by
	// every core.New of a FLASH machine.
	cfg := arch.DefaultConfig()
	took, err = perCall(d, func(n int) (time.Duration, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			if _, err := protocol.Build(&cfg); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	})
	put("protocol.probe_build_ms", 1e6, took, err)

	// core: what the sweep's pool and fork path pay per point.
	resetMS, snapMS, restoreMS, err := coreProbes(d)
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("core probes: %w", err)
	}
	out["core.probe_reset_ms"], out["core.probe_snapshot_ms"], out["core.probe_restore_ms"] = resetMS, snapMS, restoreMS

	errPct, err := lat33ErrPct()
	if err != nil && firstErr == nil {
		firstErr = fmt.Errorf("core.lat33_err_pct: %w", err)
	}
	out["core.lat33_err_pct"] = errPct
	return out, firstErr
}

// probeSink keeps the cache-lookup loop's result alive.
var probeSink uint64
