package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runMainEnv marks a re-execution of the test binary as the command
// itself: TestMain then runs main() on the arguments it was given.
const runMainEnv = "FLASHEXP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flashexp runs the command with args and returns its streams and exit code.
func flashexp(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// goldenArgs are the experiments that finish at -scale 16: sec4.5's
// 64-processor Ocean leg livelocks, and sampled prints host wall times.
var goldenArgs = []string{"-scale", "16", "table3.3", "table3.4", "fig4.1", "fig4.2", "fig4.3", "sec4.3",
	"table5.1", "table5.1small", "sec5.2", "table5.2", "table5.3", "sec5.3", "protocompare", "ablations"}

// wallTimes matches the one host-dependent part of the output: each
// experiment header's wall time.
var wallTimes = regexp.MustCompile(`(?m)^(==== \S+) \(\d+\.\ds\) ====$`)

// TestExperimentsMatchGolden pins flashexp's stdout at -scale 16, wall
// times masked, against testdata/experiments_scale16.txt, and its one
// stderr line: 110 declared runs, of which 69 are distinct machines.
func TestExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "experiments_scale16.txt"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := flashexp(t, goldenArgs...)
	if code != 0 || stderr != "flashexp: 110 runs planned, 69 simulated\n" {
		t.Fatalf("exit %d, stderr %q; want exit 0 and the plan summary line alone", code, stderr)
	}
	if got := wallTimes.ReplaceAllString(stdout, "$1 (N.Ns) ===="); got != string(want) {
		t.Errorf("stdout differs from testdata/experiments_scale16.txt; after an intended change, regenerate it with\n"+
			"  go run ./cmd/flashexp %s | sed -E 's/^(==== [^ ]+) \\([0-9]+\\.[0-9]s\\) ====$/\\1 (N.Ns) ====/' > cmd/flashexp/testdata/experiments_scale16.txt\n"+
			"got:\n%s", strings.Join(goldenArgs, " "), got)
	}
}

// TestRejectsBadFlags pins the usage errors: exit 2 with a message naming
// the flag, before anything is simulated (a zero scale used to divide by
// zero in sec5.2, a negative one silently ran the paper sizes).
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "0", "sec5.2"}, "-scale"},
		{[]string{"-scale", "-2", "fig4.1"}, "-scale"},
		{[]string{"-procs", "-1", "table3.3"}, "-procs"},
		{[]string{"-cache", "-1", "table3.3"}, "-cache"},
		{[]string{"-cache", "393216", "table3.3"}, "-cache 393216"},
		{[]string{"-parallel", "2", "table3.3"}, "-parallel"},
		{[]string{"nosuch"}, `"nosuch"`},
	} {
		stdout, stderr, code := flashexp(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.flag) || strings.Contains(stderr, "goroutine 1 [") {
			t.Errorf("flashexp %v: exit %d, stdout %q, stderr %q; want exit 2 and a message naming %s",
				tc.args, code, stdout, stderr, tc.flag)
		}
	}
}

// TestExploreSummaryLine pins the shape and the counts of the one-line
// summary `flashexp explore` prints on stderr, for the default warm sweep
// (no -cache-dir: 48 simulated FLASH points + the ideal baseline miss, the
// 96 host-axis duplicates hit, one machine per simulated point) and
// for -cold (no cache, one machine per point), and that both write the same
// result file.
func TestExploreSummaryLine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name, summary string
		args          []string
	}{
		{"warm", `cache 96 hits / 49 misses, 49 machines built`, nil},
		{"cold", `cache 0 hits / 0 misses, 145 machines built`, []string{"-cold"}},
	} {
		args := append([]string{"explore", "-out", filepath.Join(dir, tc.name+".json"),
			"-table-out", filepath.Join(dir, tc.name+".txt")}, tc.args...)
		stdout, stderr, code := flashexp(t, args...)
		if code != 0 || stdout != "" {
			t.Fatalf("%s: exit %d, stdout %q, stderr %q", tc.name, code, stdout, stderr)
		}
		want := regexp.MustCompile(`^flashexp explore: fft scale=256 procs=4: 144 points \(\d+ Pareto\), ` +
			tc.summary + `, \d+\.\ds\n$`)
		if !want.MatchString(stderr) {
			t.Errorf("%s: summary line %q does not match %s", tc.name, stderr, want)
		}
	}
	warm, err := os.ReadFile(filepath.Join(dir, "warm.json"))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := os.ReadFile(filepath.Join(dir, "cold.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, cold) {
		t.Error("warm and cold sweeps wrote different result files")
	}
	var res struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(warm, &res); err != nil || len(res.Points) != 144 {
		t.Errorf("result file: %d points, err %v; want 144", len(res.Points), err)
	}
}

// TestExploreRejectsBadInvocations pins the usage-error exit code.
func TestExploreRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"explore", "-app", "nosuch"},
		{"explore", "stray"},
		{"explore", "-out", "-", "-table-out", "-"},
	} {
		if _, stderr, code := flashexp(t, args...); code != 2 || stderr == "" {
			t.Errorf("flashexp %v: exit %d, stderr %q; want exit 2 and a message", args, code, stderr)
		}
	}
}

// TestFailedExperimentStopsProfiling pins what a failing experiment leaves
// behind: exit 1 with the cause on stderr, a complete gzipped CPU profile, a
// heap profile and the metrics file. Fft cannot split its 128-point rows
// over 3 processors, so table5.2 fails within a second.
func TestFailedExperimentStopsProfiling(t *testing.T) {
	dir := t.TempDir()
	metricsFile := filepath.Join(dir, "metrics.json")
	_, stderr, code := flashexp(t, "-pprof", dir, "-metrics-out", metricsFile, "-procs", "3", "table5.2")
	if code != 1 || !strings.Contains(stderr, "not divisible by 3 processors") {
		t.Fatalf("exit %d, stderr %q; want exit 1 on fft's processor count", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "heap.pprof")); err != nil {
		t.Errorf("no heap profile: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err == nil {
		_, err = io.Copy(io.Discard, zr)
	}
	if err != nil {
		t.Errorf("cpu.pprof does not gunzip: %v", err)
	}
	if buf, err := os.ReadFile(metricsFile); err != nil || !json.Valid(buf) {
		t.Errorf("metrics file unreadable or not JSON (err %v)", err)
	}
}

// TestUsageNamesEveryFlag: every flag -h lists, for the experiments and for
// the explore subcommand, appears in the package doc's usage block.
func TestUsageNamesEveryFlag(t *testing.T) {
	usage := docUsage(t)
	for _, args := range [][]string{{"-h"}, {"explore", "-h"}} {
		_, help, _ := flashexp(t, args...)
		if missing := missingFromUsage(help, usage); len(missing) != 0 || !strings.Contains(help, "-scale") {
			t.Errorf("%v: usage block omits %v (-h lists:\n%s)", args, missing, help)
		}
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
