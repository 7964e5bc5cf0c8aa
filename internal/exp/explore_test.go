package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/workload"
)

// trimmedGrid shrinks the sweep axes for test speed and restores them.
func trimmedGrid(t *testing.T) {
	t.Helper()
	mdc, div, qcap, proto, transit := exploreMDC, explorePPDiv, exploreQCap, exploreProto, exploreTransit
	exploreMDC = []int{16 << 10}
	explorePPDiv = []int{1, 2}
	exploreQCap = []int{16}
	exploreProto = []arch.Protocol{arch.ProtoDynPtr}
	exploreTransit = []int{22}
	t.Cleanup(func() {
		exploreMDC, explorePPDiv, exploreQCap, exploreProto, exploreTransit = mdc, div, qcap, proto, transit
	})
}

// TestExploreWarmMatchesCold requires the warm (cached) sweep to emit
// byte-identical results to the naive cold sweep — with the in-memory cache
// and with a cache directory — and a second warm sweep over the directory
// (all cache hits) to reproduce them again, at two machine sizes.
func TestExploreWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	enc := func(r *ExploreResult) string {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			o := ExploreOptions{App: "fft", Procs: procs, Verify: true}
			cold, err := Explore(o)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			o.Warm = true
			mem, err := Explore(o)
			if err != nil {
				t.Fatalf("warm, in-memory cache: %v", err)
			}
			o.CacheDir = t.TempDir()
			warm1, err := Explore(o)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			warm2, err := Explore(o)
			if err != nil {
				t.Fatalf("warm rerun: %v", err)
			}
			if enc(cold) != enc(mem) {
				t.Errorf("warm sweep (in-memory cache) differs from cold sweep:\ncold: %s\nwarm: %s", enc(cold), enc(mem))
			}
			if enc(cold) != enc(warm1) {
				t.Errorf("warm sweep differs from cold sweep:\ncold: %s\nwarm: %s", enc(cold), enc(warm1))
			}
			if enc(warm1) != enc(warm2) {
				t.Errorf("cached sweep differs from populating sweep:\nfirst: %s\nsecond: %s", enc(warm1), enc(warm2))
			}

			// Host-axis duplicates must be cache hits, with or without a
			// cache directory: with 2 points per host variant (3 variants),
			// a populating sweep simulates 2 FLASH points + 1 ideal baseline
			// on one machine each; the rerun simulates and builds nothing;
			// the cold sweep simulates all 6.
			for name, r := range map[string]*ExploreResult{"in-memory": mem, "populating": warm1} {
				if r.CacheMisses != 3 || r.CacheHits != 4 || r.PoolBuilds != 3 {
					t.Errorf("%s sweep: %d misses / %d hits / %d machines, want 3 / 4 / 3",
						name, r.CacheMisses, r.CacheHits, r.PoolBuilds)
				}
			}
			if warm2.CacheMisses != 0 || warm2.PoolBuilds != 0 {
				t.Errorf("cached rerun missed %d times and built %d machines, want 0 and 0", warm2.CacheMisses, warm2.PoolBuilds)
			}
			if cold.CacheHits != 0 || cold.PoolBuilds != 7 {
				t.Errorf("cold sweep: %d hits / %d machines, want 0 / 7", cold.CacheHits, cold.PoolBuilds)
			}
			if len(warm1.Points) != 6 {
				t.Errorf("trimmed grid produced %d points, want 6", len(warm1.Points))
			}
			for _, p := range warm1.Points {
				if p.IdealElapsed == 0 || p.Elapsed == 0 {
					t.Errorf("point %+v has zero cycles", p)
				}
			}
		})
	}
}

// TestExplorePointIsStandaloneRun requires every point of a sweep to be the
// run RunApp makes of the same configuration: equal Elapsed and an equal
// report digest for each FLASH point and for the ideal baseline. Barnes is
// the application whose numbers a paused-and-resumed schedule moves most.
func TestExplorePointIsStandaloneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	exploreProto = []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector}
	const app, scale, procs = "barnes", 32, 4
	res, err := Explore(ExploreOptions{App: app, Scale: scale, Procs: procs, Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	standalone := func(cfg arch.Config) (uint64, string) {
		t.Helper()
		cfg.Nodes, cfg.MemBytesPerNode = procs, 4<<20
		r, err := RunApp(app, cfg, apps.Params{Procs: procs, Scale: scale}, true)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(r.Report.Elapsed), reportDigest(r.Report)
	}
	ideal := arch.DefaultConfig()
	ideal.Kind = arch.KindIdeal
	idealElapsed, _ := standalone(ideal)
	for _, p := range res.Points {
		cfg := arch.DefaultConfig()
		cfg.Kind = arch.KindFLASH
		for _, proto := range exploreProto {
			if proto.String() == p.Protocol {
				cfg.Protocol = proto
			}
		}
		cfg.MDCSize, cfg.PPClockDiv, cfg.NetQueueCap = p.MDCSize, p.PPClockDiv, p.NetQueueCap
		cfg.Timing.NetTransit = uint32(p.NetTransit)
		var bad [2]error
		cfg.Engine, bad[0] = arch.ParseEngineKind(p.Engine)
		if p.Sync != "-" {
			cfg.EngineSync, bad[1] = arch.ParseEngineSync(p.Sync)
		}
		if bad[0] != nil || bad[1] != nil {
			t.Fatal(bad)
		}
		elapsed, digest := standalone(cfg)
		if p.Elapsed != elapsed || p.ReportDigest != digest {
			t.Errorf("%s/%s %s div=%d: sweep %d cycles, report %s; standalone %d cycles, report %s",
				p.Engine, p.Sync, p.Protocol, p.PPClockDiv, p.Elapsed, p.ReportDigest, elapsed, digest)
		}
		if p.IdealElapsed != idealElapsed {
			t.Errorf("ideal baseline %d cycles, standalone %d", p.IdealElapsed, idealElapsed)
		}
	}
}

// TestExploreParallelDeterminism runs a third of the grid (16 simulated
// points, two rounds for eight workers) at GOMAXPROCS 1, 2 and 8 — one, two
// and eight sweep workers; the -race target in make verify — in every mode:
// cold, in-memory warm, on-disk populate, cached rerun. All twelve sweeps
// must produce one result file, with the counts of their mode.
func TestExploreParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	exploreMDC = []int{16 << 10, 64 << 10}
	exploreQCap = []int{8, 16}
	exploreProto = []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		for _, mode := range []struct {
			name                 string
			o                    ExploreOptions
			hits, misses, builds int
		}{
			{"cold", ExploreOptions{}, 0, 0, 49},
			{"warm", ExploreOptions{Warm: true}, 32, 17, 17},
			{"populate", ExploreOptions{Warm: true, CacheDir: dir}, 32, 17, 17},
			{"rerun", ExploreOptions{Warm: true, CacheDir: dir}, 49, 0, 0},
		} {
			res, err := Explore(mode.o)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, %s: %v", procs, mode.name, err)
			}
			if res.CacheHits != mode.hits || res.CacheMisses != mode.misses || res.PoolBuilds != mode.builds {
				t.Errorf("GOMAXPROCS %d, %s: %d hits / %d misses / %d machines, want %d / %d / %d", procs, mode.name,
					res.CacheHits, res.CacheMisses, res.PoolBuilds, mode.hits, mode.misses, mode.builds)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			if string(got) != string(want) {
				t.Errorf("GOMAXPROCS %d, %s: result file differs from the first sweep's", procs, mode.name)
			}
		}
	}
}

// TestExploreReportsEveryFailingPoint sweeps a problem size every point
// rejects (Ocean's grid at scale 3 does not divide over 4 processors) and an
// application that panics, once in its builder and once on a workload
// thread (on every engine: World.Run recovers the thread on its own
// coroutine, shard goroutine or not). Explore must return — not hang, not
// die — with one error per simulated job, each naming its point, in grid
// order, identically on every call, and leave no goroutine behind.
func TestExploreReportsEveryFailingPoint(t *testing.T) {
	trimmedGrid(t)
	apps.Builders["boom-build"] = func(*workload.World, apps.Params) (*apps.App, error) {
		panic("builder exploded")
	}
	apps.Builders["boom-run"] = func(*workload.World, apps.Params) (*apps.App, error) {
		return &apps.App{Run: func(c *workload.Ctx) {
			if c.ID == 1 {
				panic("thread exploded")
			}
		}}, nil
	}
	defer delete(apps.Builders, "boom-build")
	defer delete(apps.Builders, "boom-run")

	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		o     ExploreOptions
		cause string
		modes []bool // Warm values
	}{
		{ExploreOptions{App: "ocean", Scale: 3}, "not divisible by 4 processors", []bool{false, true}},
		{ExploreOptions{App: "boom-build", Scale: 1}, "panic: builder exploded", []bool{false, true}},
		{ExploreOptions{App: "boom-run", Scale: 1}, "thread 1 (node 1) panicked at cycle 0: thread exploded", []bool{false, true}},
	} {
		for _, warm := range tc.modes {
			tc.o.Warm = warm
			_, err := Explore(tc.o)
			if err == nil {
				t.Fatalf("%s warm=%v: sweep succeeded", tc.o.App, warm)
			}
			// Warm: the baseline and the first host variant of each of the
			// two simulated points; cold: the baseline and all six points.
			hosts := []string{"seq/-"}
			if !warm {
				hosts = append(hosts, "sharded/barrier", "sharded/watermark")
			}
			names := []string{"ideal baseline: "}
			for _, div := range []int{1, 2} {
				for _, host := range hosts {
					names = append(names, fmt.Sprintf("point %s proto=%v mdc=16384 div=%d qcap=16 net=22: ",
						host, arch.ProtoDynPtr, div))
				}
			}
			joined, ok := err.(interface{ Unwrap() []error })
			if !ok || len(joined.Unwrap()) != len(names) {
				t.Fatalf("%s warm=%v: want %d joined errors, got: %v", tc.o.App, warm, len(names), err)
			}
			for i, e := range joined.Unwrap() {
				if !strings.HasPrefix(e.Error(), names[i]) || !strings.Contains(e.Error(), tc.cause) {
					t.Errorf("%s warm=%v: error %d is %q, want prefix %q and cause %q",
						tc.o.App, warm, i, firstLine(e.Error()), names[i], tc.cause)
				}
			}
			_, again := Explore(tc.o)
			if again == nil || firstLines(again) != firstLines(err) {
				t.Errorf("%s warm=%v: a second sweep reported different failures", tc.o.App, warm)
			}
		}
		if tc.o.App == "ocean" {
			// Nothing ran, so nothing may be left: the workers have exited
			// once Explore returns, give or take their last instructions.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the failing sweeps, %d before", n, before)
			}
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// firstLines keeps the first line of each joined error: a panic's stack
// trace follows it and names goroutine numbers.
func firstLines(err error) string {
	var b strings.Builder
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		b.WriteString(firstLine(e.Error()) + "\n")
	}
	return b.String()
}

// TestExploreDamagedCacheEntries damages a populated cache directory the
// ways a crashed or concurrent writer could — one entry truncated, one
// holding another key's report — and requires the next sweep to treat both
// as misses: re-simulate, overwrite, report what the clean sweep reported.
// Put must also leave nothing but entries behind.
func TestExploreDamagedCacheEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trimmedGrid(t)
	dir := t.TempDir()
	o := ExploreOptions{App: "fft", Warm: true, CacheDir: dir}
	clean, err := Explore(o)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := filepath.Glob(filepath.Join(dir, "*"))
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 3 || len(all) != 3 {
		t.Fatalf("cache directory holds %d files, %d of them entries; want 3 and 3: %v", len(all), len(files), all)
	}
	whole, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadFile(files[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], other, 0o644); err != nil {
		t.Fatal(err)
	}

	repaired, err := Explore(o)
	if err != nil {
		t.Fatalf("sweep over a damaged cache: %v", err)
	}
	if repaired.CacheMisses != 2 || repaired.PoolBuilds != 2 {
		t.Errorf("damaged entries: %d misses, %d machines; want 2 and 2", repaired.CacheMisses, repaired.PoolBuilds)
	}
	a, _ := json.Marshal(clean)
	b, _ := json.Marshal(repaired)
	if string(a) != string(b) {
		t.Errorf("sweep over a damaged cache differs from the clean sweep:\nclean:    %s\nrepaired: %s", a, b)
	}
	if got, err := os.ReadFile(files[0]); err != nil || string(got) != string(whole) {
		t.Errorf("truncated entry was not rewritten whole (err %v)", err)
	}
	rerun, err := Explore(o)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.CacheMisses != 0 || rerun.PoolBuilds != 0 {
		t.Errorf("rerun over the repaired cache: %d misses, %d machines; want 0 and 0", rerun.CacheMisses, rerun.PoolBuilds)
	}
}

// TestExploreRejectsUnknownApp pins the fail-fast app validation.
func TestExploreRejectsUnknownApp(t *testing.T) {
	if _, err := Explore(ExploreOptions{App: "nosuch"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := apps.ValidateNames([]string{"fft", "bogus"}); err == nil {
		t.Fatal("ValidateNames accepted bogus")
	}
}

// TestResultCacheRoundTrip pins the content-addressed cache: a stored
// report comes back bit-identical, a wrong key misses, and a corrupt
// entry is treated as a miss.
func TestResultCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenConfig()
	key := runKey(cfg, "fft", apps.Params{Procs: 4, Scale: 256})
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	r, err := RunApp("fft", cfg, apps.Params{Scale: 256}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report
	if err := c.Put(key, rep); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("cache round trip changed the report:\nput: %s\ngot: %s", a, b)
	}
	if _, ok := c.Get(key + "|other"); ok {
		t.Error("distinct key hit the same entry")
	}
	// Corrupt entries (e.g. a truncated write) must read as misses.
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	if err := os.WriteFile(files[0], []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry hit")
	}
}

// FuzzResultCacheEntry writes arbitrary bytes as a cache entry. Get must
// not panic; bytes that do not decode to an entry for the key read as a
// miss; and a report Get accepts survives Put and Get with its digest, the
// host accounting an outside writer can put in an entry included. The
// seeds are small, hand-written entries, so minimizing an input stays cheap.
func FuzzResultCacheEntry(f *testing.F) {
	const key = "fuzz"
	for _, s := range []string{
		`{"key":"fuzz","report":{"Machine":"FLASH","Nodes":4,"Elapsed":19373,"MissRate":0.25,` +
			`"ReadClass":[0.5,0.5,0,0,0],"HandlerLatency":{"ni_get":{"count":1,"sum":9,"min":9,"max":9}},"Sampled":{}}}`,
		`{"key":"fuzz","report":{"Machine":7,"PPOccSeries":[1e-3]}}`,
		`{"key":"fuzz","report":{"Nodes":2,"Events":9,"PerNode":[{"PPBusy":3},{}],"Host":{"WallNS":5}}}`,
		`{"key":"other","report":{}}`,
		`{"key":"fuzz","report":null} {}`,
		`{"key":"fuzz"}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	// One cache serves every input: a worker runs its inputs one at a time.
	c, err := NewResultCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, ok := c.Get(key)
		var e cacheEntry
		if entry := json.Unmarshal(data, &e) == nil && e.Key == key; ok != entry {
			t.Fatalf("Get hit %v on bytes that decode to an entry for the key: %v", ok, entry)
		}
		if !ok {
			return
		}
		if err := c.Put(key, rep); err != nil {
			t.Fatalf("Put of an accepted report: %v", err)
		}
		again, ok := c.Get(key)
		if !ok {
			t.Fatal("a report Get accepted misses after Put")
		}
		if a, b := reportDigest(rep), reportDigest(again); a != b {
			t.Fatalf("Put/Get changed the report digest from %s to %s", a, b)
		}
	})
}
