package metrics

import (
	"encoding/json"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent and TestGaugeSetMaxConcurrent are the registry's
// -race pass (make verify runs this package under the race detector): many
// goroutines write shared series, and every total must come out exact.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Add("test_total", 1, "worker", "shared")
				reg.Add("test_sum_total", uint64(i))
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters[`test_total{worker="shared"}`]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got, want := s.Counters["test_sum_total"], uint64(goroutines*perG*(perG-1)/2); got != want {
		t.Errorf("sum counter = %d, want %d", got, want)
	}
	if n := len(s.Counters); n != 2 {
		t.Errorf("%d counter series, want 2", n)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines, perG = 16, 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Max("hiwater", int64(g*perG+i))
				reg.Set("last", int64(g), "worker", strconv.Itoa(g))
			}
		}(g)
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Gauges["hiwater"]; got != goroutines*perG-1 {
		t.Errorf("Max high-water = %d, want %d", got, goroutines*perG-1)
	}
	for g := 0; g < goroutines; g++ {
		if got := s.Gauges[fmt.Sprintf(`last{worker="%d"}`, g)]; got != int64(g) {
			t.Errorf("gauge last{worker=%d} = %d", g, got)
		}
	}
	if n := len(s.Gauges); n != 1+goroutines {
		t.Errorf("%d gauge series, want %d", n, 1+goroutines)
	}
}

// TestRegistrySeries pins the series a write creates: a zero Add or a zero
// Max still creates its series (the snapshot's key set is the set of series
// written), labels render in the order given, and Max never lowers a gauge
// that Set raised.
func TestRegistrySeries(t *testing.T) {
	reg := NewRegistry()
	reg.Add("zero_total", 0, "shard", "3")
	reg.Max("depth", 0, "shard", "3")
	reg.Set("depth", 9, "shard", "4")
	reg.Max("depth", 5, "shard", "4")
	reg.Add("x_total", 2, "src", "1", "dst", "0")
	reg.Add("x_total", 3, "src", "1", "dst", "0")
	s := reg.Snapshot()
	wantC := map[string]uint64{`zero_total{shard="3"}`: 0, `x_total{src="1",dst="0"}`: 5}
	wantG := map[string]int64{`depth{shard="3"}`: 0, `depth{shard="4"}`: 9}
	if !maps.Equal(s.Counters, wantC) || !maps.Equal(s.Gauges, wantG) {
		t.Errorf("snapshot %+v, want counters %v gauges %v", s, wantC, wantG)
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var reg *Registry
	reg.Add("a", 1)
	reg.Set("b", 7)
	reg.Max("c", 7)
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Set("flash_cycles", 19307)
	reg.Add("flashsim_sim_events_total", 6277)

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
