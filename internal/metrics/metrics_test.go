package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// The concurrent tests below are the registry's -race pass (make verify runs
// this package under the race detector): many goroutines hammer shared
// instruments and the totals must come out exact.

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("test_total", "worker", "shared")
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("test_total", "worker", "shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("hiwater")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Errorf("SetMax high-water = %d, want 7999", got)
	}
}

func TestRegistryIdentityAndKinds(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "k", "v")
	b := reg.Counter("x_total", "k", "v")
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if c := reg.Counter("x_total", "k", "other"); c == a {
		t.Error("different labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "k", "v")
}

func TestNilRegistryDiscards(t *testing.T) {
	var reg *Registry
	reg.Counter("a").Inc()
	reg.Gauge("b").Set(7)
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("flash_cycles").Set(19307)
	reg.Counter("flashsim_sim_events_total").Add(6277)

	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if s.Gauges["flash_cycles"] != 19307 {
		t.Errorf("flash_cycles = %d, want 19307", s.Gauges["flash_cycles"])
	}
	if s.Counters["flashsim_sim_events_total"] != 6277 {
		t.Errorf("events = %d, want 6277", s.Counters["flashsim_sim_events_total"])
	}
}

func TestReadHostDelta(t *testing.T) {
	before := ReadHost()
	// Allocate visibly so the delta has something to show: twice the
	// asserted floor, because the runtime's allocation counters lag by
	// what each P still holds in its cache.
	sink := make([][]byte, 0, 2048)
	for i := 0; i < 2048; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	time.Sleep(time.Millisecond)
	d := ReadHost().Sub(before)
	if d.WallNS <= 0 {
		t.Errorf("wall delta %d, want > 0", d.WallNS)
	}
	if d.AllocBytes < 1<<20 {
		t.Errorf("alloc delta %d bytes, want >= 1 MiB", d.AllocBytes)
	}
	reg := NewRegistry()
	d.Publish(reg, "host", "app", "test")
	s := reg.Snapshot()
	if got := s.Gauges[`host_alloc_bytes{app="test"}`]; got != int64(d.AllocBytes) {
		t.Errorf("published alloc = %d, want %d", got, d.AllocBytes)
	}
}
