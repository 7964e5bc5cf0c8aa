package exp

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/ppisa"
	"flashsim/internal/ppsim"
	"flashsim/internal/protocol"
	"flashsim/internal/workload"
)

// TestExploreWarmIsCheap is the deterministic cost guard for the sweep: one
// warm Explore at the repo benchmark's configuration (fft, scale 256, 4
// processors, the full 144-point grid) must allocate under 70 MB in
// total, compile at most the two protocol programs and evict nothing from
// the compiled-image cache, and leave the shared programs exactly as built.
func TestExploreWarmIsCheap(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 4 << 20
	var progs []*protocol.Program
	var pairs [][]ppisa.Pair
	for _, proto := range exploreProto {
		cfg.Protocol = proto
		p, err := protocol.Build(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
		pairs = append(pairs, append([]ppisa.Pair(nil), p.Code.Pairs...))
	}

	_, miss0, evict0 := ppsim.CompileCacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, err := Explore(ExploreOptions{App: "fft", Scale: 256, Procs: 4, Warm: true})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		t.Fatal(err)
	}
	_, miss1, evict1 := ppsim.CompileCacheStats()

	if len(res.Points) != 144 || res.CacheHits != 96 || res.CacheMisses != 49 || res.PoolBuilds != 49 {
		t.Errorf("sweep: %d points, %d hits, %d misses, %d machines; want 144, 96, 49, 49",
			len(res.Points), res.CacheHits, res.CacheMisses, res.PoolBuilds)
	}
	allocMB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	t.Logf("warm sweep allocated %.1f MB", allocMB)
	if allocMB >= 70 {
		t.Errorf("warm sweep allocated %.1f MB, want < 70", allocMB)
	}
	if miss1-miss0 > 2 || evict1 != evict0 {
		t.Errorf("compiled-image cache: %d misses, %d evictions; want <= 2 and 0", miss1-miss0, evict1-evict0)
	}
	for i, p := range progs {
		if !reflect.DeepEqual(p.Code.Pairs, pairs[i]) {
			t.Errorf("shared %v program was modified by the sweep", p.Layout.Proto)
		}
	}
}

// TestSharedProgramConcurrentMachines builds and runs machines on several
// goroutines at once from one configuration, so they all execute the same
// memoized *protocol.Program and compiled image (the -race target in make
// verify for the program cache).
func TestSharedProgramConcurrentMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := goldenConfig()
	var wg sync.WaitGroup
	elapsed := make([]uint64, 4)
	progs := make([]*protocol.Program, len(elapsed))
	for g := range elapsed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := core.New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			w := workload.NewWorld(m)
			app, err := apps.Build("fft", w, apps.Params{Scale: 256})
			if err != nil {
				t.Error(err)
				return
			}
			if err := w.Run(app.Run, 0); err != nil {
				t.Error(err)
				return
			}
			if err := app.Verify(); err != nil {
				t.Error(err)
			}
			if err := m.CheckCoherence(); err != nil {
				t.Error(err)
			}
			elapsed[g], progs[g] = uint64(m.Elapsed), m.Prog
		}()
	}
	wg.Wait()
	for g := 1; g < len(elapsed); g++ {
		if progs[g] != progs[0] {
			t.Errorf("machine %d was built from its own program", g)
		}
		if elapsed[g] != elapsed[0] {
			t.Errorf("machine %d ran %d cycles, machine 0 ran %d", g, elapsed[g], elapsed[0])
		}
	}
}
