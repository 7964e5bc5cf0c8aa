package main

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestListingSortsSharedLabels: labels that share a pc print in name order,
// so the listing is the same on every run.
func TestListingSortsSharedLabels(t *testing.T) {
	file := filepath.Join(t.TempDir(), "labels.s")
	if err := os.WriteFile(file, []byte("alpha:\nbeta:\ngamma: nop\n done\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 8; run++ {
		stdout, stderr, code := ppasm(t, file)
		if code != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr %q", code, stderr)
		}
		_, listing, _ := strings.Cut(stdout, "\n\n")
		if want := "alpha:\nbeta:\ngamma:\n"; !strings.HasPrefix(listing, want) {
			t.Fatalf("run %d: listing starts %q, want %q", run, listing, want)
		}
	}
}

// TestUsageNamesEveryFlag: every flag -h lists appears in the package doc's
// usage block.
func TestUsageNamesEveryFlag(t *testing.T) {
	_, help, _ := ppasm(t, "-h")
	if missing := missingFromUsage(help, docUsage(t)); len(missing) != 0 || !strings.Contains(help, "-mode") {
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
