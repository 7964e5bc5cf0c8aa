package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		"-pp-dispatch": `arch: unknown pp-dispatch "bogus" (want compiled or interp)`,
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
