package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/trace"
)

// runMainEnv marks a re-execution of the test binary as the command
// itself: TestMain then runs main() on the arguments it was given.
const runMainEnv = "TEST_RUN_MAIN_FLASHSIM"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flashsim runs the command with args and returns its streams and exit code.
func flashsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestFailedRunLeavesCompleteTrace pins what a run that dies on the cycle
// limit leaves behind: exit 1, the error and every node's debug state on
// stderr, a heap profile, and a trace file that was flushed and closed — in
// both formats.
func TestFailedRunLeavesCompleteTrace(t *testing.T) {
	dir := t.TempDir()
	run := func(format string) []byte {
		t.Helper()
		path := filepath.Join(dir, "trace."+format)
		prof := filepath.Join(dir, "pprof-"+format)
		_, stderr, code := flashsim(t, "-app", "fft", "-procs", "4", "-scale", "64",
			"-limit", "2000", "-trace", path, "-trace-format", format, "-pprof", prof)
		if code != 1 || !strings.Contains(stderr, "flashsim: sim: cycle limit exceeded") {
			t.Fatalf("%s: exit %d, stderr %q; want exit 1 on the cycle limit", format, code, stderr)
		}
		for _, want := range []string{"cpu0: ", "magic3: "} {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s: stderr lacks the %q debug line", format, want)
			}
		}
		if _, err := os.Stat(filepath.Join(prof, "heap.pprof")); err != nil {
			t.Errorf("%s: no heap profile: %v", format, err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	lines := bytes.Split(bytes.TrimSuffix(run("jsonl"), []byte("\n")), []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("jsonl trace has %d lines, want the 2000-cycle prefix", len(lines))
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("jsonl line %d of %d does not parse: %q", i+1, len(lines), line)
		}
	}
	if chrome := run("chrome"); !json.Valid(chrome) {
		t.Errorf("chrome trace is not one valid JSON document (tail %q)", chrome[max(0, len(chrome)-80):])
	}
}

// TestRejectsUnknownBackends pins the flag-to-Config route: every backend
// flag, -protocol and -ppmode, is parsed by arch, and the error names the
// accepted set.
func TestRejectsUnknownBackends(t *testing.T) {
	for flag, want := range map[string]string{
		"-engine":      `arch: unknown engine "bogus" (want seq or sharded)`,
		"-engine-sync": `arch: unknown engine-sync "bogus" (want barrier or watermark)`,
		"-net":         `arch: unknown net model "bogus" (want uniform or mesh)`,
		"-protocol":    `arch: unknown protocol "bogus" (want dynptr or bitvec)`,
		"-ppmode":      `arch: unknown PP mode "bogus" (want dual, single or dlx)`,
	} {
		if _, stderr, code := flashsim(t, flag, "bogus"); code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("flashsim %s bogus: exit %d, stderr %q; want exit 1 and %q", flag, code, stderr, want)
		}
	}
}

// TestRejectsBadCacheGeometry pins one geometry rule for both caches: a
// size that is not a power-of-two number of sets is a returned error naming
// the field, not a panic in the cache constructor.
func TestRejectsBadCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		flag, size, field string
	}{
		{"-mdc", "49152", "MDCSize 49152"},
		{"-cache", "393216", "CacheSize 393216"},
	} {
		_, stderr, code := flashsim(t, tc.flag, tc.size, "-app", "fft", "-procs", "4", "-scale", "64")
		if code != 1 || !strings.Contains(stderr, tc.field) || strings.Contains(stderr, "goroutine") {
			t.Errorf("flashsim %s %s: exit %d, stderr %q; want exit 1 naming %s and no goroutine dump",
				tc.flag, tc.size, code, stderr, tc.field)
		}
	}
}

// TestRejectsBadFlagValues pins the flags checked before anything runs: a
// value out of range exits 1 naming its flag, and a bad -trace-format
// leaves an existing -trace file as it was.
func TestRejectsBadFlagValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep")
	const kept = "not a trace\n"
	if err := os.WriteFile(path, []byte(kept), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale 0: must be at least 1"},
		{[]string{"-scale", "-3"}, "-scale -3: must be at least 1"},
		{[]string{"-mdc", "-5"}, "-mdc -5: must not be negative"},
		{[]string{"-trace", path, "-trace-format", "bogus"}, `-trace-format "bogus": want jsonl or chrome`},
	} {
		args := append([]string{"-app", "fft", "-procs", "4", "-scale", "64"}, tc.args...)
		if stdout, stderr, code := flashsim(t, args...); code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("flashsim %v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if buf, err := os.ReadFile(path); err != nil || string(buf) != kept {
		t.Errorf("-trace file after a bad -trace-format: %q, %v; want it untouched", buf, err)
	}
}

// TestAppBuildOutOfMemoryIsAnError: a data set that does not fit in
// -membytes panics inside the app builder; flashsim returns it as an error
// naming the app, with no goroutine dump.
func TestAppBuildOutOfMemoryIsAnError(t *testing.T) {
	stdout, stderr, code := flashsim(t, "-app", "fft", "-membytes", "65536")
	want := "flashsim: fft: workload: node 13 out of memory\n"
	if code != 1 || stderr != want || stdout != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and stderr %q", code, stdout, stderr, want)
	}
}

// TestJSONReportCarriesHostCost pins where Report.Host is stamped: flashsim
// runs one simulation per process, so with -metrics its JSON report carries
// the run's host cost (a positive wall time), and without it no Host at all.
func TestJSONReportCarriesHostCost(t *testing.T) {
	for _, metricsOn := range []bool{false, true} {
		args := []string{"-app", "fft", "-procs", "4", "-scale", "64", "-json"}
		if metricsOn {
			args = append(args, "-metrics")
		}
		stdout, stderr, code := flashsim(t, args...)
		if code != 0 {
			t.Fatalf("flashsim %v: exit %d, stderr %q", args, code, stderr)
		}
		var rep struct{ Host *struct{ WallNS int64 } }
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatal(err)
		}
		if metricsOn && (rep.Host == nil || rep.Host.WallNS <= 0) || !metricsOn && rep.Host != nil {
			t.Errorf("flashsim %v: Host = %+v; want a positive wall time exactly when -metrics is on", args, rep.Host)
		}
	}
}

// TestOccWindowIsATraceSink pins -occ-window's wiring: the JSON report
// carries the window and machine-average series in [0, 1], each equal to a
// binning of the run's own trace spans (handlers for the PP, memory
// reservations for memory); the -trace file written beside it is the one
// written without it; the ideal machine, whose handlers take no time,
// reports no PP series; and a sharded run, on either sync scheme, reports
// seq's series.
func TestOccWindowIsATraceSink(t *testing.T) {
	const window, nodes = 2000, 4
	dir := t.TempDir()
	run := func(args ...string) string {
		t.Helper()
		args = append([]string{"-app", "fft", "-procs", "4", "-scale", "64"}, args...)
		stdout, stderr, code := flashsim(t, args...)
		if code != 0 {
			t.Fatalf("flashsim %v: exit %d, stderr %q", args, code, stderr)
		}
		return stdout
	}
	report := func(stdout string) (r struct {
		OccWindow                 uint64
		MemOccSeries, PPOccSeries []float64
	}) {
		t.Helper()
		if err := json.Unmarshal([]byte(stdout), &r); err != nil {
			t.Fatal(err)
		}
		if r.OccWindow != window {
			t.Errorf("OccWindow = %d, want %d", r.OccWindow, window)
		}
		for name, s := range map[string][]float64{"mem": r.MemOccSeries, "PP": r.PPOccSeries} {
			for i, v := range s {
				if v < 0 || v > 1 {
					t.Errorf("%s occupancy window %d = %g, outside [0, 1]", name, i, v)
				}
			}
		}
		return r
	}

	withOcc, without := filepath.Join(dir, "occ.jsonl"), filepath.Join(dir, "plain.jsonl")
	flash := report(run("-json", "-occ-window", "2000", "-trace", withOcc))
	run("-trace", without)
	traced, err := os.ReadFile(withOcc)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := os.ReadFile(without); err != nil || !bytes.Equal(traced, plain) {
		t.Fatalf("-trace file with -occ-window differs from the one without (%d vs %d bytes, %v)", len(traced), len(plain), err)
	}

	evs, err := trace.ReadJSONL(bytes.NewReader(traced))
	if err != nil {
		t.Fatal(err)
	}
	var pp, mem []uint64
	bin := func(busy *[]uint64, at, dur uint64) {
		for c := at; c < at+dur; c++ {
			w := int(c / window)
			for len(*busy) <= w {
				*busy = append(*busy, 0)
			}
			(*busy)[w]++
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindHandler:
			bin(&pp, ev.Cycle, ev.Dur)
		case trace.KindMemRead, trace.KindMemWrite:
			bin(&mem, ev.Cycle, ev.Dur)
		}
	}
	for _, c := range []struct {
		name string
		got  []float64
		busy []uint64
	}{{"mem", flash.MemOccSeries, mem}, {"PP", flash.PPOccSeries, pp}} {
		if len(c.busy) == 0 {
			t.Fatalf("the trace has no %s spans", c.name)
		}
		want := make([]float64, len(c.busy))
		for i, b := range c.busy {
			want[i] = float64(b) / (window * nodes)
		}
		if !slices.Equal(c.got, want) {
			t.Errorf("%s series = %v, want the trace's binning %v", c.name, c.got, want)
		}
	}

	ideal := report(run("-machine", "ideal", "-json", "-occ-window", "2000"))
	if len(ideal.MemOccSeries) == 0 || len(ideal.PPOccSeries) != 0 {
		t.Errorf("ideal machine: %d mem and %d PP windows, want mem only", len(ideal.MemOccSeries), len(ideal.PPOccSeries))
	}

	// The sharded engine feeds the same one tracer, under either sync
	// scheme, so its series are seq's.
	for _, sync := range []string{"barrier", "watermark"} {
		sh := report(run("-engine", "sharded", "-engine-sync", sync, "-json", "-occ-window", "2000"))
		if !slices.Equal(sh.MemOccSeries, flash.MemOccSeries) || !slices.Equal(sh.PPOccSeries, flash.PPOccSeries) {
			t.Errorf("sharded %s: series differ from seq's (mem %d vs %d, PP %d vs %d windows)", sync,
				len(sh.MemOccSeries), len(flash.MemOccSeries), len(sh.PPOccSeries), len(flash.PPOccSeries))
		}
	}
}

// TestUsageNamesEveryFlag: every flag -h lists appears in the package doc's
// usage block.
func TestUsageNamesEveryFlag(t *testing.T) {
	_, help, _ := flashsim(t, "-h")
	if missing := missingFromUsage(help, docUsage(t)); len(missing) != 0 || !strings.Contains(help, "-app") {
		t.Errorf("usage block omits %v (-h lists:\n%s)", missing, help)
	}
}

// docUsage returns the usage block of this package's doc comment: the
// indented lines after "Usage:", up to the first unindented one.
func docUsage(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(f.Doc.Text(), "Usage:\n")
	if !ok {
		t.Fatal("package doc has no Usage: block")
	}
	var lines []string
	for _, l := range strings.Split(block, "\n") {
		if l != "" && !strings.HasPrefix(l, "\t") {
			break
		}
		lines = append(lines, l)
	}
	return strings.Join(lines, "\n") + "\n"
}

// missingFromUsage returns each flag the -h output lists that usage does
// not name. The -test.* flags are the test binary's own, which lists them
// when it re-runs itself as the command.
func missingFromUsage(help, usage string) []string {
	var missing []string
	for _, m := range regexp.MustCompile(`(?m)^  (-\S+)`).FindAllStringSubmatch(help, -1) {
		if !strings.HasPrefix(m[1], "-test.") && !regexp.MustCompile(`[\s\[|]`+regexp.QuoteMeta(m[1])+`[\s\]|]`).MatchString(usage) {
			missing = append(missing, m[1])
		}
	}
	return missing
}
