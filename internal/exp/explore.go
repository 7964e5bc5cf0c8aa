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
// Both modes run each point as a phased simulation (prefix to a pause
// point, checkpoint-compatible quiescence, resume), so a point's Report is
// identical however it is produced:
//
//   - cold: every point builds a fresh machine, simulates prefix + resume
//     in place, and discards the machine. The naive sweep.
//   - warm: each simulated point runs its prefix on a donor machine,
//     checkpoints, snapshot-forks into a second machine (copy-on-write
//     data store and protocol memory), and resumes there; the Report lands
//     in a content-addressed ResultCache keyed by the normalized
//     simulated-behavior digest — in memory for the call, or on disk under
//     CacheDir. Points that differ only in host-side axes are cache hits
//     and never simulate.
//
// The sweep holds no machine pool: no two simulated points share a pool
// key, and a point's donor and fork are live together, so a pool could
// never hit inside one sweep and would only keep every machine reachable
// until the end. Machines are garbage once their point's report is
// collected; construction is cheap because protocol programs are built once
// per process (protocol.Build) and memories are sparse.
//
// Fork continuations are bit-identical to cold continuations
// (TestForkDeterminism), so cold and warm sweeps emit byte-identical
// result files — scripts/bench.sh asserts this, along with the warm
// speedup floor.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
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
	// PrefixRefs is the per-processor reference count of the common prefix
	// (default 20000, the fork-golden pause point).
	PrefixRefs uint64
	// Warm selects the snapshot-forked, cached path; false runs the naive
	// cold sweep.
	Warm bool
	// CacheDir is the content-addressed result cache directory (warm mode
	// only; empty keeps the cache in memory for this call).
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
	App        string         `json:"app"`
	Scale      int            `json:"scale"`
	Procs      int            `json:"procs"`
	PrefixRefs uint64         `json:"prefix_refs"`
	Points     []ExplorePoint `json:"points"`

	// Summary counters, not part of the deterministic result payload.
	// PoolBuilds counts the machines the sweep constructed; PoolHits is
	// always zero (the sweep recycles no machines) and remains for the
	// repo benchmark, which reads both.
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
		{arch.EngineSeq, arch.EngineSyncAuto, "seq", "-"},
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
// dir, named by the key's SHA-256, or an in-memory map when dir is empty.
// Entries are reports with host-cost accounting stripped, so a hit is
// byte-identical to the report a fresh simulation of the same key produces.
// A nil *ResultCache never hits and drops every Put (the cold sweep).
type ResultCache struct {
	dir string
	mem map[string]stats.Report // the store when dir is empty
}

// NewResultCache opens (creating if needed) a cache rooted at dir; an
// empty dir makes a cache that lives in memory and dies with the value.
func NewResultCache(dir string) (*ResultCache, error) {
	if dir == "" {
		return &ResultCache{mem: map[string]stats.Report{}}, nil
	}
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
	if c.dir == "" {
		rep, ok := c.mem[key]
		return rep, ok
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

// Put stores a report under key. Host accounting is stripped first: the
// cache holds simulated results only, which are machine- and
// run-independent.
func (c *ResultCache) Put(key string, rep stats.Report) error {
	if c == nil {
		return nil
	}
	rep.Host = nil
	if c.dir == "" {
		c.mem[key] = rep
		return nil
	}
	buf, err := json.MarshalIndent(cacheEntry{Key: key, Report: rep}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.path(key), append(buf, '\n'), 0o644)
}

// exploreCacheKey is the content address of one simulated point: the
// normalized simulated-behavior key (engine/sync/dispatch excluded — they
// cannot change the result) plus the workload identity and the phase
// schedule.
func exploreCacheKey(cfg arch.Config, app string, scale, procs int, prefixRefs uint64) string {
	return fmt.Sprintf("explore-v1|%s|app=%s|scale=%d|procs=%d|prefix=%d",
		core.SimKeyFor(cfg), app, scale, procs, prefixRefs)
}

func reportDigest(rep stats.Report) string {
	rep.Host = nil
	buf, err := json.Marshal(rep)
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// runPhased runs app on m as a phased simulation — prefix to pauseRefs,
// then resume in place — and returns the world (for verification).
func runPhased(m *core.Machine, app string, p apps.Params, pauseRefs uint64) (*workload.World, *apps.App, error) {
	w := workload.NewWorld(m)
	a, err := apps.Build(app, w, p)
	if err != nil {
		return nil, nil, err
	}
	pre, err := w.RunPrefix(a.Run, pauseRefs, 0)
	if err != nil {
		return nil, nil, err
	}
	if err := pre.Resume(); err != nil {
		return nil, nil, err
	}
	return w, a, nil
}

// explorePointCold simulates one point the naive way: fresh machine,
// phased run, discard.
func explorePointCold(cfg arch.Config, o ExploreOptions, p apps.Params) (stats.Report, error) {
	m, err := core.New(cfg)
	if err != nil {
		return stats.Report{}, err
	}
	_, a, err := runPhased(m, o.App, p, o.PrefixRefs)
	if err != nil {
		return stats.Report{}, err
	}
	if o.Verify {
		if err := a.Verify(); err != nil {
			return stats.Report{}, err
		}
		if err := m.CheckCoherence(); err != nil {
			return stats.Report{}, err
		}
	}
	rep := stats.Collect(m)
	rep.Host = nil
	return rep, nil
}

// explorePointWarm simulates one point the warm way: prefix on a donor,
// checkpoint, snapshot-fork into a second machine, resume there. Both
// machines are garbage when it returns.
func explorePointWarm(cfg arch.Config, o ExploreOptions, p apps.Params) (stats.Report, error) {
	donor, err := core.New(cfg)
	if err != nil {
		return stats.Report{}, err
	}
	w := workload.NewWorld(donor)
	a, err := apps.Build(o.App, w, p)
	if err != nil {
		return stats.Report{}, err
	}
	pre, err := w.RunPrefix(a.Run, o.PrefixRefs, 0)
	if err != nil {
		return stats.Report{}, err
	}
	ck, err := pre.Checkpoint()
	if err != nil {
		return stats.Report{}, err
	}
	fork, err := core.New(cfg)
	if err != nil {
		return stats.Report{}, err
	}
	w2, err := w.Fork(ck, fork, a.Run, 0)
	if err != nil {
		return stats.Report{}, err
	}
	if o.Verify {
		w.M = fork // Verify closures read through the build-time world
		if err := a.Verify(); err != nil {
			return stats.Report{}, err
		}
		w.M = donor
		if err := fork.CheckCoherence(); err != nil {
			return stats.Report{}, err
		}
	}
	rep := stats.Collect(w2.M)
	rep.Host = nil
	return rep, nil
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
	if o.PrefixRefs == 0 {
		o.PrefixRefs = 20000
	}
	p := apps.Params{Procs: o.Procs, Scale: o.Scale}

	var cache *ResultCache // nil on the cold sweep: every point simulates
	var err error
	if o.Warm {
		cache, err = NewResultCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
	}

	res := &ExploreResult{App: o.App, Scale: o.Scale, Procs: o.Procs, PrefixRefs: o.PrefixRefs}

	// The ideal baseline: the hardwired machine's timing ignores every
	// swept MAGIC knob, so one (unphased) run serves the whole sweep.
	idealCfg := arch.DefaultConfig()
	idealCfg.Kind = arch.KindIdeal
	idealCfg.Nodes = o.Procs
	idealCfg.MemBytesPerNode = 4 << 20
	var idealRep stats.Report
	idealKey := exploreCacheKey(idealCfg, o.App, o.Scale, o.Procs, 0)
	if rep, ok := cache.Get(idealKey); ok {
		idealRep = rep
		res.CacheHits++
	} else {
		im, err := core.New(idealCfg)
		if err != nil {
			return nil, err
		}
		res.PoolBuilds++
		iw := workload.NewWorld(im)
		ia, err := apps.Build(o.App, iw, p)
		if err != nil {
			return nil, err
		}
		if err := iw.Run(ia.Run, 0); err != nil {
			return nil, err
		}
		if o.Verify {
			if err := ia.Verify(); err != nil {
				return nil, err
			}
		}
		idealRep = stats.Collect(im)
		idealRep.Host = nil
		if cache != nil {
			res.CacheMisses++
			if err := cache.Put(idealKey, idealRep); err != nil {
				return nil, err
			}
		}
	}

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
							key := exploreCacheKey(cfg, o.App, o.Scale, o.Procs, o.PrefixRefs)
							var rep stats.Report
							if cached, ok := cache.Get(key); ok {
								rep = cached
								pt.CacheHit = true
								res.CacheHits++
							} else {
								if o.Warm {
									rep, err = explorePointWarm(cfg, o, p)
									res.PoolBuilds += 2 // donor + fork
								} else {
									rep, err = explorePointCold(cfg, o, p)
									res.PoolBuilds++
								}
								if err != nil {
									return nil, fmt.Errorf("point %s/%s proto=%s mdc=%d div=%d qcap=%d net=%d: %w",
										pt.Engine, pt.Sync, pt.Protocol, mdc, div, qcap, transit, err)
								}
								if cache != nil {
									res.CacheMisses++
									if err := cache.Put(key, rep); err != nil {
										return nil, err
									}
								}
							}
							pt.Elapsed = uint64(rep.Elapsed)
							pt.IdealElapsed = uint64(idealRep.Elapsed)
							pt.SlowdownPct = 100 * (float64(pt.Elapsed)/float64(pt.IdealElapsed) - 1)
							pt.Cost = exploreCost(pt)
							pt.ReportDigest = reportDigest(rep)
							res.Points = append(res.Points, pt)
						}
					}
				}
			}
		}
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

// goldenScaleFor returns the per-app default problem divisor (the golden
// suite's scales — small enough for second-scale sweeps).
func goldenScaleFor(app string) int {
	scales := map[string]int{
		"fft": 256, "lu": 8, "radix": 64, "ocean": 8,
		"barnes": 32, "mp3d": 50, "os": 16,
	}
	if s, ok := scales[app]; ok {
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
