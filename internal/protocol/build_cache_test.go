package protocol

import (
	"reflect"
	"testing"

	"flashsim/internal/arch"
)

// TestBuildSharesPrograms pins the build key: configurations that differ
// only in fields Build, NewLayout and Symbols never read share one
// *Program, and each field they do read selects its own.
func TestBuildSharesPrograms(t *testing.T) {
	base := arch.DefaultConfig()
	want, err := Build(&base)
	if err != nil {
		t.Fatal(err)
	}
	unread := map[string]func(*arch.Config){
		"MDC size":    func(c *arch.Config) { c.MDCSize = 16 << 10; c.MDCWays = 4 },
		"PP clock":    func(c *arch.Config) { c.PPClockDiv = 2 },
		"queue cap":   func(c *arch.Config) { c.NetQueueCap = 8 },
		"transit":     func(c *arch.Config) { c.Timing.NetTransit = 14 },
		"engine":      func(c *arch.Config) { c.Engine = arch.EngineSharded; c.EngineSync = arch.EngineSyncWatermark },
		"dispatch":    func(c *arch.Config) { c.PPDispatch = arch.PPDispatchInterp },
		"cache size":  func(c *arch.Config) { c.CacheSize = 4 << 10 },
		"speculation": func(c *arch.Config) { c.Speculation = !c.Speculation },
	}
	for name, mutate := range unread {
		cfg := base
		mutate(&cfg)
		got, err := Build(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: Build returned a different *Program for a field it does not read", name)
		}
	}
	read := map[string]func(*arch.Config){
		"Protocol":        func(c *arch.Config) { c.Protocol = arch.ProtoBitVector },
		"PPMode":          func(c *arch.Config) { c.PPMode = arch.PPSingleIssue },
		"Nodes":           func(c *arch.Config) { c.Nodes = base.Nodes / 2 },
		"MemBytesPerNode": func(c *arch.Config) { c.MemBytesPerNode = base.MemBytesPerNode / 2 },
	}
	seen := map[*Program]string{want: "the base configuration"}
	for name, mutate := range read {
		cfg := base
		mutate(&cfg)
		got, err := Build(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: Build returned the *Program of %s", name, prev)
		}
		seen[got] = name
		again, _ := Build(&cfg)
		if again != got {
			t.Errorf("%s: second Build returned a different *Program", name)
		}
	}
}

// TestBuildCachedEqualsFresh requires a cached program to be what a fresh
// assembly of the same configuration produces, after machines have run it.
func TestBuildCachedEqualsFresh(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
		cfg := arch.DefaultConfig()
		cfg.Protocol = proto
		cached, err := Build(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := assemble(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == cached {
			t.Fatal("assemble returned the cached program")
		}
		if !reflect.DeepEqual(cached.Code.Pairs, fresh.Code.Pairs) {
			t.Errorf("%v: cached Pairs differ from a fresh assembly's", proto)
		}
		if !reflect.DeepEqual(cached.Code.Entries, fresh.Code.Entries) {
			t.Errorf("%v: cached Entries differ from a fresh assembly's", proto)
		}
		if cached.Layout != fresh.Layout {
			t.Errorf("%v: cached Layout %+v, fresh %+v", proto, cached.Layout, fresh.Layout)
		}
	}
}

// TestBuildErrorNotCached keeps a failing configuration failing.
func TestBuildErrorNotCached(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Protocol = arch.ProtoBitVector
	cfg.Nodes = BVMaxNodes + 1
	for i := 0; i < 2; i++ {
		if p, err := Build(&cfg); err == nil || p != nil {
			t.Fatalf("attempt %d: Build accepted %d nodes under bit-vector", i, cfg.Nodes)
		}
	}
}
