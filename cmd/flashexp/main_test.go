package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
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
