package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv marks a re-execution of the test binary as the command
// itself: TestMain then runs main() on the arguments it was given.
const runMainEnv = "TEST_RUN_MAIN_PPASM"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ppasm runs the command with args and returns its streams and exit code.
func ppasm(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// TestStatsPerProtocol: -stats prints the static statistics of the chosen
// built-in protocol and nothing else — the bit-vector program has fewer
// entry points than dynamic pointer allocation.
func TestStatsPerProtocol(t *testing.T) {
	for proto, entries := range map[string]string{"dynptr": "62", "bitvec": "48"} {
		stdout, stderr, code := ppasm(t, "-protocol", proto, "-stats")
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit %d, stderr %q", proto, code, stderr)
		}
		lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
		if len(lines) != 5 {
			t.Fatalf("%s: %d stats lines, want 5:\n%s", proto, len(lines), stdout)
		}
		if want := "entry points:        " + entries; lines[4] != want {
			t.Errorf("%s: last line %q, want %q", proto, lines[4], want)
		}
	}
}

// TestRejectsBadInput: an unknown -protocol or -mode and an unreadable file
// each exit 1 with a message saying what was wrong.
func TestRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.s")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "bogus", "-stats"}, `ppasm: arch: unknown protocol "bogus" (want dynptr or bitvec)`},
		{[]string{"-mode", "bogus", "-stats"}, `ppasm: arch: unknown PP mode "bogus" (want dual, single or dlx)`},
		{[]string{"-stats", missing}, "ppasm: open " + missing},
	} {
		stdout, stderr, code := ppasm(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("ppasm %v: exit %d, stdout %q, stderr %q; want exit 1 and %q", tc.args, code, stdout, stderr, tc.want)
		}
	}
}
