package metrics

import (
	"math"
	"runtime/metrics"
	"time"
)

// hostKeys are the runtime/metrics samples behind a HostSample, in the
// order ReadHost requests them.
var hostKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

// HostSample is a point-in-time reading of the Go runtime's host-cost
// counters, sourced from runtime/metrics. Subtract two samples (Sub) to
// attribute allocation, GC, and wall-clock cost to the work between them.
type HostSample struct {
	When         time.Time `json:"-"`
	AllocBytes   uint64    // cumulative heap bytes allocated
	AllocObjects uint64    // cumulative heap objects allocated
	GCCycles     uint64    // completed GC cycles
	GCCPUNS      int64     // estimated CPU nanoseconds spent in GC
	GCPauses     uint64    // stop-the-world GC pauses
	GCPauseNS    int64     // total STW GC pause nanoseconds (bucket-midpoint estimate)
}

// ReadHost samples the runtime counters now.
func ReadHost() HostSample {
	samples := make([]metrics.Sample, len(hostKeys))
	for i, k := range hostKeys {
		samples[i].Name = k
	}
	metrics.Read(samples)
	h := HostSample{When: time.Now()}
	for _, s := range samples {
		switch s.Name {
		case "/gc/heap/allocs:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				h.AllocBytes = s.Value.Uint64()
			}
		case "/gc/heap/allocs:objects":
			if s.Value.Kind() == metrics.KindUint64 {
				h.AllocObjects = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				h.GCCycles = s.Value.Uint64()
			}
		case "/cpu/classes/gc/total:cpu-seconds":
			if s.Value.Kind() == metrics.KindFloat64 {
				h.GCCPUNS = int64(s.Value.Float64() * 1e9)
			}
		case "/sched/pauses/total/gc:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h.GCPauses, h.GCPauseNS = pauseTotals(s.Value.Float64Histogram())
			}
		}
	}
	return h
}

// pauseTotals estimates count and total seconds of a runtime pause
// histogram: exact counts, durations approximated at bucket midpoints
// (runtime buckets are fine-grained, so the estimate is tight).
func pauseTotals(h *metrics.Float64Histogram) (count uint64, totalNS int64) {
	if h == nil {
		return 0, 0
	}
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		if math.IsInf(lo, -1) {
			mid = hi
		}
		if math.IsInf(hi, 1) {
			mid = lo
		}
		count += n
		total += float64(n) * mid
	}
	return count, int64(total * 1e9)
}

// HostDelta is the host cost attributed to the work between two samples.
type HostDelta struct {
	WallNS       int64
	AllocBytes   uint64
	AllocObjects uint64
	GCCycles     uint64
	GCCPUNS      int64
	GCPauses     uint64
	GCPauseNS    int64
}

// Sub returns the delta from earlier to h.
func (h HostSample) Sub(earlier HostSample) HostDelta {
	return HostDelta{
		WallNS:       h.When.Sub(earlier.When).Nanoseconds(),
		AllocBytes:   h.AllocBytes - earlier.AllocBytes,
		AllocObjects: h.AllocObjects - earlier.AllocObjects,
		GCCycles:     h.GCCycles - earlier.GCCycles,
		GCCPUNS:      h.GCCPUNS - earlier.GCCPUNS,
		GCPauses:     h.GCPauses - earlier.GCPauses,
		GCPauseNS:    h.GCPauseNS - earlier.GCPauseNS,
	}
}

// Publish records the delta into reg as gauges under the given metric name
// prefix and optional labels (e.g. prefix "flashsim_app_host", labels
// app=fft).
func (d HostDelta) Publish(reg *Registry, prefix string, labels ...string) {
	reg.Set(prefix+"_wall_ns", d.WallNS, labels...)
	reg.Set(prefix+"_alloc_bytes", int64(d.AllocBytes), labels...)
	reg.Set(prefix+"_alloc_objects", int64(d.AllocObjects), labels...)
	reg.Set(prefix+"_gc_cycles", int64(d.GCCycles), labels...)
	reg.Set(prefix+"_gc_cpu_ns", d.GCCPUNS, labels...)
	reg.Set(prefix+"_gc_pauses", int64(d.GCPauses), labels...)
	reg.Set(prefix+"_gc_pause_ns", d.GCPauseNS, labels...)
}
