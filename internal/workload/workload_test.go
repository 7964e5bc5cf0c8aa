package workload

import (
	"fmt"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/sim"
)

func newTestWorld(t *testing.T, nodes int, pl arch.Placement) *World {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Nodes = nodes
	cfg.MemBytesPerNode = 1 << 20
	cfg.Placement = pl
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(m)
}

func TestAllocOnNodePlacement(t *testing.T) {
	w := newTestWorld(t, 4, arch.PlaceFirstTouch)
	for n := arch.NodeID(0); n < 4; n++ {
		a := w.AllocOnNode(100, n)
		if w.Cfg.HomeOf(a) != n {
			t.Fatalf("allocation for node %d homed at %d", n, w.Cfg.HomeOf(a))
		}
		if a%arch.PageSize != 0 {
			t.Fatalf("allocation not page aligned: %#x", a)
		}
	}
}

func TestAllocRoundRobinRotates(t *testing.T) {
	w := newTestWorld(t, 4, arch.PlaceRoundRobin)
	seen := map[arch.NodeID]int{}
	for i := 0; i < 8; i++ {
		seen[w.Cfg.HomeOf(w.Alloc(64))]++
	}
	for n := arch.NodeID(0); n < 4; n++ {
		if seen[n] != 2 {
			t.Fatalf("round-robin distribution: %v", seen)
		}
	}
}

func TestAllocNodeZeroConcentrates(t *testing.T) {
	w := newTestWorld(t, 4, arch.PlaceNodeZero)
	for i := 0; i < 5; i++ {
		if h := w.Cfg.HomeOf(w.Alloc(64)); h != 0 {
			t.Fatalf("node-zero policy allocated on node %d", h)
		}
	}
	if h := w.Cfg.HomeOf(w.AllocPlaced(64, 3)); h != 0 {
		t.Fatalf("AllocPlaced under node-zero went to %d", h)
	}
}

func TestAllocPlacedHonorsPolicy(t *testing.T) {
	ft := newTestWorld(t, 4, arch.PlaceFirstTouch)
	if h := ft.Cfg.HomeOf(ft.AllocPlaced(64, 3)); h != 3 {
		t.Fatalf("first-touch AllocPlaced went to %d, want 3", h)
	}
	rr := newTestWorld(t, 4, arch.PlaceRoundRobin)
	if h := rr.Cfg.HomeOf(rr.AllocPlaced(64, 3)); h != 0 {
		t.Fatalf("round-robin AllocPlaced should rotate from 0, got %d", h)
	}
}

func TestArrayIndexing(t *testing.T) {
	w := newTestWorld(t, 4, arch.PlaceRoundRobin)
	n := 3*ElemsPerPage + 17 // spans four pages
	a := w.NewArray(n)
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	// Distinct elements get distinct addresses; pages rotate across homes.
	seen := map[arch.Addr]bool{}
	homes := map[arch.NodeID]bool{}
	for i := 0; i < n; i++ {
		ad := a.Addr(i)
		if seen[ad] {
			t.Fatalf("duplicate address for element %d", i)
		}
		seen[ad] = true
		homes[w.Cfg.HomeOf(ad)] = true
	}
	if len(homes) != 4 {
		t.Fatalf("array pages touched %d homes, want 4", len(homes))
	}
	// Adjacent elements within one page are 8 bytes apart.
	if a.Addr(1)-a.Addr(0) != 8 {
		t.Fatalf("stride = %d", a.Addr(1)-a.Addr(0))
	}
}

func TestArrayBlockedOwnership(t *testing.T) {
	w := newTestWorld(t, 4, arch.PlaceFirstTouch)
	n := 4 * ElemsPerPage
	a := w.NewArrayBlocked(n, 4)
	per := n / 4
	for p := 0; p < 4; p++ {
		for _, i := range []int{p * per, p*per + per - 1} {
			if h := w.Cfg.HomeOf(a.Addr(i)); h != arch.NodeID(p) {
				t.Fatalf("block %d element %d homed at %d", p, i, h)
			}
		}
	}
}

func TestSingleExtent(t *testing.T) {
	a := SingleExtent(0x1000, 64)
	if a.Len() != 64 || a.Addr(0) != 0x1000 || a.Addr(63) != 0x1000+63*8 {
		t.Fatal("single extent addressing wrong")
	}
	// Longer than a page: still one contiguous region.
	b := SingleExtent(0x1008, 3*ElemsPerPage+5)
	for _, i := range []int{ElemsPerPage - 1, ElemsPerPage, 3*ElemsPerPage + 4} {
		if got, want := b.Addr(i), arch.Addr(0x1008+8*i); got != want {
			t.Fatalf("Addr(%d) = %#x, want %#x", i, got, want)
		}
	}
}

// TestArrayIndexOutOfRange: every constructor's array rejects an index
// outside [0, Len()) — even one that still falls in its last page — and
// World.Run reports the panic as the indexing thread's error.
func TestArrayIndexOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(w *World) *Array
	}{
		{"NewArray", func(w *World) *Array { return w.NewArray(5) }},
		{"NewArrayBlocked", func(w *World) *Array { return w.NewArrayBlocked(5, 2) }},
		{"SingleExtent", func(w *World) *Array { return SingleExtent(w.AllocOnNode(5*8, 1), 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 4, arch.PlaceFirstTouch)
			a := tc.make(w)
			if a.Len() != 5 {
				t.Fatalf("Len = %d, want 5", a.Len())
			}
			err := w.Run(func(c *Ctx) {
				c.WriteU(a.Addr(a.Len()-1), 1)
				if c.ID == 1 {
					c.ReadU(a.Addr(a.Len()))
				}
			}, 0)
			if err == nil {
				t.Fatal("indexing Len() succeeded")
			}
			for _, want := range []string{"thread 1 ", "workload: index 5 out of range [0,5)"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("run error lacks %q:\n%v", want, err)
				}
			}
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "index -1 out of range [0,5)") {
					t.Fatalf("Addr(-1) panicked with %v", r)
				}
			}()
			a.Addr(-1)
		})
	}
}

func TestPageColoring(t *testing.T) {
	// Same-index pages on different nodes must land in different cache
	// sets (the skew that prevents interleaved arrays from thrashing).
	w := newTestWorld(t, 4, arch.PlaceRoundRobin)
	waySpan := uint64(w.Cfg.CacheSize / w.Cfg.CacheWays)
	s0 := uint64(w.AllocOnNode(64, 0)) % waySpan
	s1 := uint64(w.AllocOnNode(64, 1)) % waySpan
	if s0 == s1 {
		t.Fatal("node allocators not color-skewed")
	}
}

func TestCtxRandDeterministic(t *testing.T) {
	c1 := &Ctx{prng: 42}
	c2 := &Ctx{prng: 42}
	for i := 0; i < 10; i++ {
		if c1.Rand() != c2.Rand() {
			t.Fatal("Rand not deterministic")
		}
	}
}

// TestThreadPanicIsRunError: a panic in application code must come back
// from Run as an error naming the thread and the panic value, with the
// panic's stack, on every engine — including the sharded ones, where the
// thread runs on a shard goroutine no caller could recover — instead of
// killing the process.
func TestThreadPanicIsRunError(t *testing.T) {
	const k = 50 // references thread 2 retires before it panics
	for _, tc := range []struct {
		name   string
		engine arch.EngineKind
		sync   arch.EngineSync
	}{
		{"seq", arch.EngineSeq, arch.EngineSyncBarrier},
		{"sharded-barrier", arch.EngineSharded, arch.EngineSyncBarrier},
		{"sharded-watermark", arch.EngineSharded, arch.EngineSyncWatermark},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := arch.DefaultConfig()
			cfg.Nodes = 4
			cfg.MemBytesPerNode = 1 << 20
			cfg.Engine, cfg.EngineSync = tc.engine, tc.sync
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if se, ok := m.Eng.(*sim.ShardedEngine); ok {
				se.Workers = 2
			}
			w := NewWorld(m)
			a := w.NewArray(4 * ElemsPerPage)
			err = w.Run(func(c *Ctx) {
				for i := 0; i < 4*k; i++ {
					if c.ID == 2 && i == k {
						panic("thread two gives up")
					}
					c.WriteU(a.Addr((c.ID*k+i)%a.Len()), uint64(i))
					c.ReadU(a.Addr(i % a.Len()))
				}
			}, 10_000_000)
			if err == nil {
				t.Fatal("run with a panicking thread returned nil")
			}
			msg := err.Error()
			for _, want := range []string{
				"workload: thread 2 (node 2) panicked at cycle ",
				": thread two gives up\n",
				"TestThreadPanicIsRunError", // the panic's stack
			} {
				if !strings.Contains(msg, want) {
					t.Fatalf("error missing %q:\n%s", want, msg)
				}
			}
			if strings.Contains(msg, "deadlock") {
				t.Fatalf("deadlock error not superseded:\n%s", msg)
			}
		})
	}
}
