package exp

// The explore experiment sweeps the MAGIC design space the paper holds
// fixed — protocol processor clock, MAGIC data cache size, network queue
// depth, directory protocol, fabric latency — and maps each design point's
// flexibility cost (slowdown versus the ideal hardwired machine, Figure
// 4.1's metric) against a hardware cost proxy, marking the Pareto
// frontier. Host-side execution choices (event engine, sync scheme) ride
// along as sweep axes to exercise the full backend matrix; they change no
// simulated behavior, which is exactly what the warm path exploits.
//
// Explore is plan, execute, assemble:
//
//   - plan: enumerate the grid in order, compute each point's runKey,
//     group points that share a key (first-seen order) and ask the
//     ResultCache for each distinct key once. The ideal baseline is one
//     more job at the head of the list. A cold sweep has no cache and no
//     grouping: every point is its own job.
//   - execute: the jobs the cache did not answer run on the executor
//     flashexp's experiments use (plan.go), min(GOMAXPROCS, jobs) worker
//     goroutines. Each builds a fresh machine, runs the point exactly as
//     flashsim runs it (World.Run, start to finish) and drops the machine.
//     Jobs share nothing mutable: protocol programs are memoized
//     process-wide and read-only (TestSharedProgramConcurrentMachines), and
//     a worker writes only its own job.
//   - assemble: one goroutine walks the grid in order, stores new reports
//     in the cache, counts hits, misses and machines, digests each distinct
//     report once, and joins the failures in grid order.
//
// "Warm" therefore means exactly "result cache on" — the job table for the
// call, plus a ResultCache on disk under CacheDir. Points that differ only in host-side
// axes share a key, so two of every three are hits and never simulate.
// Which worker ran a job cannot reach the result file, so cold and warm
// sweeps emit byte-identical files at any GOMAXPROCS
// (TestExploreParallelDeterminism); scripts/bench.sh asserts cold == warm,
// along with the warm speedup floor.
//
// A point's numbers are those of a standalone run of its configuration
// (TestExplorePointIsStandaloneRun). No two simulated points share a
// simulated prefix — every point differs in a simulated knob from cycle 0 —
// so nothing is forked or replayed (DESIGN.md §15 keeps the post-mortem).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/stats"
)

// ExploreOptions configures the design-space sweep.
type ExploreOptions struct {
	// App is the application swept (any Figure 4.1 name; default fft).
	App string
	// Scale is the problem-size divisor (default: the golden-digest scale
	// for the app, keeping a full sweep to seconds).
	Scale int
	// Procs is the node count (default 4).
	Procs int
	// Warm turns the result cache on; false runs the naive cold sweep,
	// which simulates every point.
	Warm bool
	// CacheDir is the content-addressed result cache directory (warm mode
	// only; empty keeps results for this call only).
	CacheDir string
	// Verify re-checks application results on every simulated point.
	Verify bool
}

// ExplorePoint is one design point's outcome. All fields are deterministic
// functions of the configuration and the application, so result files
// compare byte-for-byte across cold/warm modes and cache hits/misses.
type ExplorePoint struct {
	Engine      string `json:"engine"`
	Sync        string `json:"sync"`
	Protocol    string `json:"protocol"`
	MDCSize     int    `json:"mdc_bytes"`
	PPClockDiv  int    `json:"pp_clock_div"`
	NetQueueCap int    `json:"net_queue_cap"`
	NetTransit  int    `json:"net_transit"`

	Elapsed      uint64  `json:"elapsed_cycles"`
	IdealElapsed uint64  `json:"ideal_cycles"`
	SlowdownPct  float64 `json:"slowdown_pct"`
	// Cost is the hardware cost proxy (see DESIGN.md §15): PP clock term
	// 2/div + MDC KiB/64 + queue cap/16 + directory term (bit-vector 1.0,
	// dynamic pointer 0.5) + fabric term 22/transit.
	Cost float64 `json:"cost"`
	// Pareto marks nondominated points: no other point has both lower-or-
	// equal slowdown and lower-or-equal cost with one strictly lower.
	Pareto bool `json:"pareto"`
	// ReportDigest fingerprints the point's full statistics report, so
	// byte-comparing result files also proves the cache returned
	// bit-identical Reports.
	ReportDigest string `json:"report_digest"`

	// CacheHit is set on points served from the result cache; excluded
	// from the result file (it differs between a populating and a
	// re-reading sweep) and reported in the run summary instead.
	CacheHit bool `json:"-"`
}

// ExploreResult is the full sweep outcome. Marshaling it produces the
// deterministic result file; the summary counters live outside it.
type ExploreResult struct {
	App    string         `json:"app"`
	Scale  int            `json:"scale"`
	Procs  int            `json:"procs"`
	Points []ExplorePoint `json:"points"`

	// Summary counters, not part of the deterministic result payload.
	// PoolBuilds counts the machines the sweep constructed (one per
	// simulated job); PoolHits is always zero (nothing recycles machines)
	// and remains for the repo benchmark, which reads both.
	CacheHits   int `json:"-"`
	CacheMisses int `json:"-"`
	PoolHits    int `json:"-"`
	PoolBuilds  int `json:"-"`
}

// exploreAxes defines the sweep grid. The NetTransit axis doubles as the
// engine-lookahead axis: the uniform-model transit latency is the
// conservative window both engines synchronize and flush stores on, so
// sweeping it sweeps the lookahead window (DESIGN.md §8, §15).
var (
	exploreMDC     = []int{16 << 10, 64 << 10, 256 << 10}
	explorePPDiv   = []int{1, 2}
	exploreQCap    = []int{8, 16}
	exploreProto   = []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector}
	exploreTransit = []int{22, 14}
	exploreHost    = []struct {
		engine arch.EngineKind
		sync   arch.EngineSync
		name   string
		sync_  string
	}{
		{arch.EngineSeq, arch.EngineSyncBarrier, "seq", "-"},
		{arch.EngineSharded, arch.EngineSyncBarrier, "sharded", "barrier"},
		{arch.EngineSharded, arch.EngineSyncWatermark, "sharded", "watermark"},
	}
)

func exploreCost(p ExplorePoint) float64 {
	dir := 0.5
	if p.Protocol == arch.ProtoBitVector.String() {
		dir = 1.0
	}
	return 2.0/float64(p.PPClockDiv) +
		float64(p.MDCSize)/float64(64<<10) +
		float64(p.NetQueueCap)/16.0 +
		dir +
		22.0/float64(p.NetTransit)
}

// ResultCache is a content-addressed store of simulation reports, keyed
// by the normalized simulated-behavior key: one JSON file per entry under
// dir, named by the key's SHA-256. Entries are reports with host-cost
// accounting stripped, so a hit is byte-identical to the report a fresh
// simulation of the same key produces. A nil *ResultCache never hits and
// drops every Put (a sweep without a cache directory: Explore's own job
// table is what serves one call's duplicates).
type ResultCache struct {
	dir string
}

// NewResultCache opens (creating if needed) a cache rooted at dir.
func NewResultCache(dir string) (*ResultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ResultCache{dir: dir}, nil
}

type cacheEntry struct {
	Key    string       `json:"key"`
	Report stats.Report `json:"report"`
}

func (c *ResultCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get returns the cached report for key, if present.
func (c *ResultCache) Get(key string) (stats.Report, bool) {
	if c == nil {
		return stats.Report{}, false
	}
	buf, err := os.ReadFile(c.path(key))
	if err != nil {
		return stats.Report{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(buf, &e); err != nil || e.Key != key {
		return stats.Report{}, false
	}
	return e.Report, true
}

// Put stores a report under key.
func (c *ResultCache) Put(key string, rep stats.Report) error {
	if c == nil {
		return nil
	}
	buf, err := json.MarshalIndent(cacheEntry{Key: key, Report: rep}, "", " ")
	if err != nil {
		return err
	}
	// Write beside the entry and rename over it: a sweep sharing the
	// directory sees the old entry, no entry or the new one, never part of
	// one. The temporary name does not end in .json, so it is never read.
	f, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		return err
	}
	_, err = f.Write(append(buf, '\n'))
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.path(key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

func reportDigest(rep stats.Report) string {
	buf, err := json.Marshal(rep)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// exploreJob is one distinct simulation of the sweep: the ideal baseline or
// a FLASH design point. Plan fills name and key (and rep, hit when the cache
// answers); a worker fills rep or err; assemble fills the rest.
type exploreJob struct {
	*job
	name string // the baseline, or the first grid point that needs it
	key  string

	hit    bool // served by the result cache: nothing to simulate
	used   bool // a grid point has taken its report
	digest string
}

// Explore runs the design-space sweep and returns Pareto-annotated points
// in deterministic grid order.
func Explore(o ExploreOptions) (*ExploreResult, error) {
	if o.App == "" {
		o.App = "fft"
	}
	if _, ok := apps.Builders[o.App]; !ok {
		return nil, fmt.Errorf("explore: unknown application %q (valid: %s)", o.App, apps.ValidNames())
	}
	if o.Procs <= 0 {
		o.Procs = 4
	}
	if o.Scale <= 0 {
		o.Scale = goldenScaleFor(o.App)
	}
	p := apps.Params{Procs: o.Procs, Scale: o.Scale}

	var cache *ResultCache // nil unless reports outlive the call
	if o.Warm && o.CacheDir != "" {
		var err error
		cache, err = NewResultCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
	}

	// Plan. jobs is in first-seen order; jobOf[i] serves res.Points[i].
	// byKey is the cache within the call; a cold sweep leaves it empty, so
	// every point is its own job.
	var jobs []*exploreJob
	var todo []*job
	byKey := map[string]*exploreJob{}
	plan := func(name string, cfg arch.Config) *exploreJob {
		key := runKey(cfg, o.App, p)
		if j := byKey[key]; j != nil {
			return j
		}
		j := &exploreJob{job: newJob(o.App, cfg, p, o.Verify), name: name, key: key}
		if j.rep, j.hit = cache.Get(key); !j.hit {
			todo = append(todo, j.job)
		}
		if o.Warm {
			byKey[key] = j
		}
		jobs = append(jobs, j)
		return j
	}

	// The ideal baseline: the hardwired machine's timing ignores every
	// swept MAGIC knob, so one run serves the whole sweep.
	idealCfg := arch.DefaultConfig()
	idealCfg.Kind = arch.KindIdeal
	idealCfg.Nodes = o.Procs
	idealCfg.MemBytesPerNode = 4 << 20
	ideal := plan("ideal baseline", idealCfg)

	res := &ExploreResult{App: o.App, Scale: o.Scale, Procs: o.Procs}
	var jobOf []*exploreJob
	for _, proto := range exploreProto {
		for _, mdc := range exploreMDC {
			for _, div := range explorePPDiv {
				for _, qcap := range exploreQCap {
					for _, transit := range exploreTransit {
						for _, host := range exploreHost {
							cfg := arch.DefaultConfig()
							cfg.Kind = arch.KindFLASH
							cfg.Nodes = o.Procs
							cfg.MemBytesPerNode = 4 << 20
							cfg.Protocol = proto
							cfg.MDCSize = mdc
							cfg.PPClockDiv = div
							cfg.NetQueueCap = qcap
							cfg.Timing.NetTransit = uint32(transit)
							cfg.Engine = host.engine
							cfg.EngineSync = host.sync

							pt := ExplorePoint{
								Engine:      host.name,
								Sync:        host.sync_,
								Protocol:    proto.String(),
								MDCSize:     mdc,
								PPClockDiv:  div,
								NetQueueCap: qcap,
								NetTransit:  transit,
							}
							pt.Cost = exploreCost(pt)
							name := fmt.Sprintf("point %s/%s proto=%s mdc=%d div=%d qcap=%d net=%d",
								pt.Engine, pt.Sync, pt.Protocol, mdc, div, qcap, transit)
							res.Points = append(res.Points, pt)
							jobOf = append(jobOf, plan(name, cfg))
						}
					}
				}
			}
		}
	}

	// Execute. Each worker writes only the job it received; waiting on done
	// orders those writes before assemble reads them.
	execute(todo)
	for _, j := range todo {
		<-j.done
	}

	// Assemble. First the jobs, in first-seen (so grid) order: a job the
	// cache answered is a hit for the point that planned it, any other built
	// a machine and, on a warm sweep, was a miss whose report is stored now.
	var errs []error
	for _, j := range jobs {
		if j.hit {
			res.CacheHits++
		} else {
			res.PoolBuilds++
			if o.Warm {
				res.CacheMisses++
			}
			if j.err == nil {
				j.err = cache.Put(j.key, j.rep)
			}
		}
		if j.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", j.name, j.err))
			continue
		}
		j.digest = reportDigest(j.rep)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Then the points: every use of a job after its first is a hit too.
	for i, j := range jobOf {
		pt := &res.Points[i]
		pt.CacheHit = j.hit || j.used
		if j.used {
			res.CacheHits++
		}
		j.used = true
		pt.Elapsed = uint64(j.rep.Elapsed)
		pt.IdealElapsed = uint64(ideal.rep.Elapsed)
		pt.SlowdownPct = 100 * (float64(pt.Elapsed)/float64(pt.IdealElapsed) - 1)
		pt.ReportDigest = j.digest
	}
	markPareto(res.Points)
	return res, nil
}

// markPareto flags the nondominated points under (SlowdownPct, Cost)
// minimization. Points with identical coordinates do not dominate each
// other, so host-axis duplicates of a frontier point all carry the flag.
func markPareto(pts []ExplorePoint) {
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if pts[j].SlowdownPct <= pts[i].SlowdownPct && pts[j].Cost <= pts[i].Cost &&
				(pts[j].SlowdownPct < pts[i].SlowdownPct || pts[j].Cost < pts[i].Cost) {
				dominated = true
				break
			}
		}
		pts[i].Pareto = !dominated
	}
}

// goldenScales holds the golden suite's per-app problem divisors — small
// enough for second-scale sweeps.
var goldenScales = map[string]int{
	"fft": 256, "lu": 8, "radix": 64, "ocean": 8,
	"barnes": 32, "mp3d": 50, "os": 16,
}

// goldenScaleFor returns the per-app default problem divisor: the golden
// scale, or 256 for an application outside the suite.
func goldenScaleFor(app string) int {
	if s, ok := goldenScales[app]; ok {
		return s
	}
	return 256
}

// Table renders the sweep as the paper-style aligned table: frontier
// points first (marked *), then the rest, both in increasing cost order.
func (r *ExploreResult) Table() string {
	idx := make([]int, len(r.Points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := r.Points[idx[a]], r.Points[idx[b]]
		if pa.Pareto != pb.Pareto {
			return pa.Pareto
		}
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		return pa.SlowdownPct < pb.SlowdownPct
	})
	rows := make([][]string, 0, len(idx))
	for _, i := range idx {
		p := r.Points[i]
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		rows = append(rows, []string{
			mark, p.Engine, p.Sync, p.Protocol,
			fmt.Sprintf("%dK", p.MDCSize>>10),
			fmt.Sprintf("1/%d", p.PPClockDiv),
			fmt.Sprintf("%d", p.NetQueueCap),
			fmt.Sprintf("%d", p.NetTransit),
			fmt.Sprintf("%.2f", p.Cost),
			fmt.Sprintf("%.1f%%", p.SlowdownPct),
		})
	}
	return table([]string{"", "engine", "sync", "proto", "mdc", "pp-clk", "qcap", "net", "cost", "slowdown"}, rows)
}
