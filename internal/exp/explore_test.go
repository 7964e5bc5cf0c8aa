package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

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

// TestExploreWarmMatchesCold requires the warm (snapshot-forked + cached)
// sweep to emit byte-identical results to the naive cold sweep — with the
// in-memory cache and with a cache directory — and a second warm sweep
// over the directory (all cache hits) to reproduce them again. Procs 2 is
// the regression case for forks whose processors all finished inside the
// prefix: their occupancy denominators must be the donor's drain time, not
// the restored machine's rewound clock.
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
			// and builds a donor and a fork per FLASH point; the rerun
			// simulates and builds nothing; the cold sweep simulates all 6.
			for name, r := range map[string]*ExploreResult{"in-memory": mem, "populating": warm1} {
				if r.CacheMisses != 3 || r.CacheHits != 4 || r.PoolBuilds != 5 {
					t.Errorf("%s sweep: %d misses / %d hits / %d machines, want 3 / 4 / 5",
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
	key := exploreCacheKey(cfg, "fft", 256, 4, 20000)
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
	rep.Host = nil
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

// TestMachinePoolConcurrent exercises the pool from parallel goroutines
// running real simulations (the -race target in make verify).
func TestMachinePoolConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pool := NewMachinePool()
	cfg := goldenConfig()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				m, err := pool.Get(cfg)
				if err != nil {
					errs <- err
					return
				}
				w := workload.NewWorld(m)
				app, err := apps.Build("fft", w, apps.Params{Scale: 256})
				if err != nil {
					errs <- err
					return
				}
				if err := w.Run(app.Run, 0); err != nil {
					errs <- err
					return
				}
				if err := app.Verify(); err != nil {
					errs <- err
					return
				}
				pool.Put(m)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pool.Hits+pool.Misses != 8 {
		t.Errorf("pool served %d gets, want 8", pool.Hits+pool.Misses)
	}
	if pool.Misses > 4 {
		t.Errorf("pool built %d machines for 4 goroutines", pool.Misses)
	}
}
