package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"flashsim/internal/exp"
	"flashsim/internal/metrics"
)

// childEnv carries a sweepSpec to a child process. Each sweep runs in its
// own process because that is what `flashexp explore` users wait for: a cold
// compile cache, a small heap, and a high-water RSS that is the sweep's own.
const childEnv = "FLASHBENCH_SWEEP_CHILD"

type sweepSpec struct {
	App     string `json:"app"`
	Scale   int    `json:"scale"`
	Procs   int    `json:"procs"`
	Warm    bool   `json:"warm"`
	Profile string `json:"profile,omitempty"` // write a CPU profile of the sweep here
}

// sweepOut is what a child reports on its standard output, plus the
// process-level costs its parent reads from wait4.
type sweepOut struct {
	WallS       float64           `json:"wall_s"`
	Points      int               `json:"points"`
	Digest      string            `json:"digest"` // of the deterministic result JSON
	PoolHits    int               `json:"pool_hits"`
	PoolBuilds  int               `json:"pool_builds"`
	CacheHits   int               `json:"cache_hits"`
	CacheMisses int               `json:"cache_misses"`
	Host        metrics.HostDelta `json:"host"`

	use usage
}

// sweepChildMain runs one exp.Explore call as `flashexp explore` would and
// prints a sweepOut. It returns the process exit code.
func sweepChildMain(raw string) int {
	runtime.GOMAXPROCS(benchProcs)
	var spec sweepSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep child: %v\n", err)
		return 2
	}
	if spec.Profile != "" {
		f, err := os.Create(spec.Profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep child: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: sweep child: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	h0 := metrics.ReadHost()
	start := time.Now()
	res, err := exp.Explore(exp.ExploreOptions{App: spec.App, Scale: spec.Scale, Procs: spec.Procs, Warm: spec.Warm})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep child: %v\n", err)
		return 1
	}
	out := sweepOut{
		WallS:  time.Since(start).Seconds(),
		Host:   metrics.ReadHost().Sub(h0),
		Points: len(res.Points), PoolHits: res.PoolHits, PoolBuilds: res.PoolBuilds,
		CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: sweep child: %v\n", err)
		return 1
	}
	sum := sha256.Sum256(buf)
	out.Digest = hex.EncodeToString(sum[:])
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	return 0
}

// runSweep starts one child, waits for it, and returns its report together
// with its CPU time, peak RSS and fault count.
func runSweep(spec sweepSpec) (*sweepOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sweep child: %w", err)
	}
	var out sweepOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("sweep child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("sweep child: no rusage")
	}
	out.use = fromRusage(ru)
	return &out, nil
}

func (w workloadDef) sweepSpec(warm bool) sweepSpec {
	return sweepSpec{App: w.App, Scale: w.Scale, Procs: w.Procs, Warm: warm}
}

// repeatSweeps runs warm sweeps, one fresh process each, until budget is
// spent, checking every one returns the same result file.
func (r *runner) repeatSweeps(budget time.Duration) ([]*sweepOut, error) {
	var outs []*sweepOut
	start := time.Now()
	for rep := 0; ; rep++ {
		id := r.rec.begin("exp.Explore", 0, rep)
		o, err := runSweep(r.w.sweepSpec(true))
		r.rec.end(id)
		if err != nil {
			return nil, err
		}
		r.check(o.Points == sweepPoints, "sweep rep %d: %d points, want %d", rep, o.Points, sweepPoints)
		if rep > 0 {
			r.check(o.Digest == outs[0].Digest, "sweep rep %d: result digest %s differs from %s", rep, o.Digest, outs[0].Digest)
		}
		outs = append(outs, o)
		half := time.Duration(o.WallS * float64(time.Second) / 2)
		if time.Since(start)+half > budget {
			return outs, nil
		}
	}
}

// sweepPoints is the size of exp.Explore's grid; a different count means the
// sweep no longer does the work the recorded numbers describe.
const sweepPoints = 144
