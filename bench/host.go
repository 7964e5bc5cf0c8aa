package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value; the driver's result line uses this shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// dist summarises the timed repetitions of one end-to-end metric.
type dist struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	// MaxDevPct is how far the farthest repetition sits from the median.
	MaxDevPct float64   `json:"max_dev_pct"`
	Values    []float64 `json:"values"`
}

// quantile interpolates linearly between order statistics of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func summarize(unit string, v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{Unit: unit, N: len(s), Values: v}
	if len(s) == 0 {
		return d
	}
	d.Median, d.Q1, d.Q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
	d.Min, d.Max = s[0], s[len(s)-1]
	if d.Median != 0 {
		far := d.Max - d.Median
		if d.Median-d.Min > far {
			far = d.Median - d.Min
		}
		d.MaxDevPct = 100 * far / d.Median
	}
	return d
}

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}

// usage is a getrusage reading.
type usage struct {
	user, sys time.Duration
	maxRSSKB  int64
	minFlt    int64
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

func (u usage) add(o usage) usage {
	return usage{user: u.user + o.user, sys: u.sys + o.sys, maxRSSKB: max(u.maxRSSKB, o.maxRSSKB), minFlt: u.minFlt + o.minFlt}
}

func (u usage) sub(e usage) usage {
	return usage{user: u.user - e.user, sys: u.sys - e.sys, maxRSSKB: u.maxRSSKB, minFlt: u.minFlt - e.minFlt}
}

func fromRusage(r *syscall.Rusage) usage {
	return usage{
		user:     time.Duration(r.Utime.Nano()),
		sys:      time.Duration(r.Stime.Nano()),
		maxRSSKB: int64(r.Maxrss),
		minFlt:   int64(r.Minflt),
	}
}

func selfUsage() usage {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		return usage{} // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return fromRusage(&r)
}

// freshHeap returns the heap to the operating system and restarts the
// process's RSS high-water mark, so the work that follows starts as it would
// in a process of its own and its peak can be read alone.
func freshHeap() {
	debug.FreeOSMemory()
	// Linux resets VmHWM on this write. Where it cannot be written the mark
	// stays the process's own, which peakRSSKB then reports: an upper bound.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB is the RSS high-water mark since the last freshHeap.
func peakRSSKB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(b), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	return selfUsage().maxRSSKB
}

// hostInfo records where and under what load a result was measured.
type hostInfo struct {
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
	// Noisy is set when the 1-minute load average exceeded the CPU count at
	// either end of the run: something else was competing for the host.
	Noisy bool `json:"noisy"`
}

// load1 reads the 1-minute load average; -1 where /proc is unavailable.
func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func startHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		LoadStart:  load1(),
	}
}

func (h *hostInfo) finish() {
	h.LoadEnd = load1()
	n := float64(h.NumCPU)
	h.Noisy = h.LoadStart > n || h.LoadEnd > n
}

// rng is splitmix64: the probes' address streams and the leg order derive
// from -seed through it, so a seed reproduces a run's inputs exactly.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
