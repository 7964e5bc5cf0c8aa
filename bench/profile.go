package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Stacks the coroutine switch and the collector run on; samples under them
// are charged to host.coro_share and host.gc_share whatever the leaf is.
const (
	coroStack = `runtime\.coroswitch_m`
	gcStack   = `runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge|gcMarkTermination|gcStart)`
)

// shareLayers are the repo packages that get a <pkg>.cpu_share metric.
var shareLayers = []string{
	"sim", "workload", "apps", "cpu", "magic", "ppsim", "protocol",
	"memsys", "network", "ideal", "stats", "trace", "core", "exp",
}

var (
	shownRE = regexp.MustCompile(`accounting for ([0-9.]+)(ms)?, .* of ([0-9.]+)(ms)? total`)
	rowRE   = regexp.MustCompile(`^\s*([0-9.]+)(ms)?\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(ms)?\s+[0-9.]+%\s+(.+)$`)
)

// pprofTop runs `go tool pprof -top` over the profile with every node kept
// and returns flat milliseconds per function, the milliseconds the filters
// let through, and the profile's total.
func pprofTop(profile string, filters ...string) (flat map[string]float64, shown, total float64, err error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, filters...)
	cmd := exec.Command("go", append(args, profile)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat = map[string]float64{}
	seenHeader := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := shownRE.FindStringSubmatch(line); m != nil {
			shown, _ = strconv.ParseFloat(m[1], 64)
			total, _ = strconv.ParseFloat(m[3], 64)
			continue
		}
		if strings.Contains(line, "flat%") {
			seenHeader = true
			continue
		}
		if !seenHeader {
			continue
		}
		if m := rowRE.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64)
			flat[strings.TrimSuffix(m[4], " (inline)")] += v
		}
	}
	return flat, shown, total, nil
}

// classify names the share a function's own (flat) time belongs to.
func classify(fn string) string {
	const repo = "flashsim/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		pkg := fn[len(repo):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l + ".cpu_share"
			}
		}
		return "host.unattributed_share" // arch, ppisa, metrics: no layer of their own
	case strings.HasPrefix(fn, "iter.Pull"), strings.HasPrefix(fn, "runtime.coro"):
		return "host.coro_share"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "flashsim/"):
		return "host.unattributed_share" // the benchmark's own frames
	}
	// The module imports nothing but the standard library, so what is left
	// is the Go runtime and standard packages.
	return "host.runtime_share"
}

// profileShares attributes the profile's samples: stacks under a coroutine
// switch or the collector first, everything else by the package of the
// function the sample landed in. The shares sum to 1.
func profileShares(profile string) (map[string]float64, error) {
	_, coro, total, err := pprofTop(profile, "-focus="+coroStack)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		// A run shorter than the 10 ms sampling period: nothing to attribute.
		return map[string]float64{"host.unattributed_share": 1}, nil
	}
	_, gc, _, err := pprofTop(profile, "-ignore="+coroStack, "-focus="+gcStack)
	if err != nil {
		return nil, err
	}
	flat, _, _, err := pprofTop(profile, "-ignore="+coroStack+"|"+gcStack)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{"host.coro_share": coro / total, "host.gc_share": gc / total}
	var sum float64
	for fn, ms := range flat {
		shares[classify(fn)] += ms / total
		sum += ms
	}
	// Samples pprof dropped or rounded away are unattributed too.
	if rest := total - coro - gc - sum; rest > 0 {
		shares["host.unattributed_share"] += rest / total
	}
	return shares, nil
}
