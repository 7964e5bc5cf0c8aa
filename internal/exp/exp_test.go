package exp

import (
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
)

// The experiments' rendered output at -scale 16 is pinned end to end by
// cmd/flashexp's golden file; the tests below check what each experiment
// declares — which machines it runs, and which of them it shares with
// Figure 4.1 — without simulating anything.

// tinyOptions is the scale the golden file is recorded at.
func tinyOptions() Options { return Options{Scale: 16, Verify: true} }

// declared plans the named experiments and returns the plan and each
// experiment's declared runs.
func declared(t *testing.T, o Options, names ...string) (*Plan, [][]*job) {
	t.Helper()
	p, err := NewPlan(o, names)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([][]*job, len(p.exps))
	for i, e := range p.exps {
		runs[i] = e.jobs
	}
	return p, runs
}

// sameJobs reports whether every job in a is the corresponding one in b.
func sameJobs(a, b []*job) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// legs returns every other job of a pair list, starting at first (0 =
// FLASH, 1 = ideal).
func legs(jobs []*job, first int) []*job {
	var out []*job
	for i := first; i < len(jobs); i += 2 {
		out = append(out, jobs[i])
	}
	return out
}

// TestTable33 reproduces the no-contention read miss latencies of Table 3.3
// for both machines: each of the ten latency rows must PASS, within the
// tolerance its paper row states.
func TestTable33(t *testing.T) {
	s := scores{}
	out, err := table33(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out)
	n := 0
	for i := range paperRows {
		r := &paperRows[i]
		if r.exp != "table3.3" || r.metric == "PP occ" {
			continue
		}
		n++
		if measured, _, result, note := r.score(tinyOptions(), s[r], nil); result != "PASS" {
			t.Errorf("%s %s: latency %s, paper %s (tolerance %g): %s %s", r.metric, r.row, measured, r, r.tol, result, note)
		}
	}
	if n != 10 {
		t.Errorf("%d Table 3.3 latency rows, want 10", n)
	}
}

func TestTable34(t *testing.T) {
	s, err := table34(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + s)
	for _, h := range []string{"pi_get_local", "ni_get", "ni_fwd_get", "ni_put"} {
		if !strings.Contains(s, h) {
			t.Fatalf("missing handler %s", h)
		}
	}
}

// TestFig41 pins Figure 4.1's runs: a FLASH/ideal pair per application in
// suite order, 16 processors (8 for the round-robin-paged OS workload), all
// distinct.
func TestFig41(t *testing.T) {
	p, runs := declared(t, tinyOptions(), "fig4.1")
	if p.Runs() != 14 || p.Simulations() != 14 {
		t.Fatalf("fig4.1: %d runs, %d simulated; want 14 and 14", p.Runs(), p.Simulations())
	}
	for i, j := range runs[0] {
		app := apps.Names[i/2]
		kind := []arch.MachineKind{arch.KindFLASH, arch.KindIdeal}[i%2]
		wantProcs, wantPlace := 16, arch.PlaceFirstTouch
		if app == "os" {
			wantProcs, wantPlace = 8, arch.PlaceRoundRobin
		}
		if j.app != app || j.cfg.Kind != kind || j.cfg.Nodes != wantProcs || j.p.Procs != wantProcs ||
			j.cfg.Placement != wantPlace || j.cfg.CacheSize != 1<<20 {
			t.Errorf("run %d: %s on %v, %d nodes, %v, %d-byte caches; want %s on %v, %d nodes, %v, 1 MB",
				i, j.app, j.cfg.Kind, j.cfg.Nodes, j.cfg.Placement, j.cfg.CacheSize, app, kind, wantProcs, wantPlace)
		}
	}
}

// TestFig42 pins that the 64 KB suite shares no machine with the 1 MB one.
func TestFig42(t *testing.T) {
	p, runs := declared(t, tinyOptions(), "fig4.1", "fig4.2")
	if len(runs[1]) != 10 || p.Simulations() != 24 {
		t.Fatalf("fig4.2 after fig4.1: %d runs, %d simulated in all; want 10 and 24", len(runs[1]), p.Simulations())
	}
	for _, j := range runs[1] {
		if j.cfg.CacheSize != 64<<10 {
			t.Errorf("%s: %d-byte caches, want 64 KB", j.app, j.cfg.CacheSize)
		}
	}
}

// TestFig43 pins the paper's footnote: Ocean runs 16 KB caches where the
// others run 4 KB.
func TestFig43(t *testing.T) {
	_, runs := declared(t, tinyOptions(), "fig4.3")
	if len(runs[0]) != 8 {
		t.Fatalf("fig4.3: %d runs, want 8", len(runs[0]))
	}
	for _, j := range runs[0] {
		want := 4 << 10
		if j.app == "ocean" {
			want = 16 << 10
		}
		if j.cfg.CacheSize != want {
			t.Errorf("%s: %d-byte caches, want %d", j.app, j.cfg.CacheSize, want)
		}
	}
}

// TestSec43 pins that Section 4.3's round-robin OS pair is Figure 4.1's,
// while the node-zero FFT and OS pairs are new machines.
func TestSec43(t *testing.T) {
	p, runs := declared(t, tinyOptions(), "fig4.1", "sec4.3")
	fig, sec := runs[0], runs[1]
	if len(sec) != 6 || !sameJobs(sec[2:4], fig[10:12]) || p.Simulations() != 18 {
		t.Errorf("sec4.3 after fig4.1: %d runs, OS round-robin pair shared %v, %d simulated; want 6, true, 18",
			len(sec), sameJobs(sec[2:4], fig[10:12]), p.Simulations())
	}
}

// TestTable51 pins that Table 5.1's speculation-on legs are Figure 4.1's
// FLASH legs, and that only the speculation-off legs are simulated anew.
func TestTable51(t *testing.T) {
	p, runs := declared(t, tinyOptions(), "fig4.1", "table5.1")
	if !sameJobs(legs(runs[1], 0), legs(runs[0], 0)) {
		t.Error("table5.1's speculation-on legs are not fig4.1's FLASH legs")
	}
	for _, j := range legs(runs[1], 1) {
		if j.cfg.Speculation {
			t.Errorf("%s: speculation-off leg runs with speculation", j.app)
		}
	}
	if p.Simulations() != 21 {
		t.Errorf("fig4.1 + table5.1: %d simulated, want 21", p.Simulations())
	}
}

// TestSec52 pins that Section 5.2's OS run is Figure 4.1's OS FLASH leg,
// and that a plan rejects a scale below 1 (its key count divides by it).
func TestSec52(t *testing.T) {
	_, runs := declared(t, tinyOptions(), "fig4.1", "sec5.2")
	if runs[1][2] != runs[0][10] {
		t.Error("sec5.2's OS run is not fig4.1's OS FLASH leg")
	}
	for _, scale := range []int{0, -2} {
		o := tinyOptions()
		o.Scale = scale
		if _, err := NewPlan(o, []string{"sec5.2"}); err == nil {
			t.Errorf("scale %d accepted", scale)
		}
	}
}

// TestTable52 pins that Table 5.2 re-reads Figure 4.1's pairs and
// simulates nothing of its own.
func TestTable52(t *testing.T) {
	p, runs := declared(t, tinyOptions(), "fig4.1", "table5.2")
	if p.Runs() != 26 || p.Simulations() != 14 {
		t.Errorf("fig4.1 + table5.2: %d runs, %d simulated; want 26 and 14", p.Runs(), p.Simulations())
	}
	if fig := runs[0]; !sameJobs(runs[1], append(fig[:10:10], fig[12:]...)) {
		t.Error("table5.2's pairs are not fig4.1's, OS aside")
	}
}

func TestTable53(t *testing.T) {
	s, err := table53(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + s)
	if !strings.Contains(s, "branch on bit") {
		t.Fatal("missing instruction class")
	}
}

// TestSec53 pins that Section 5.3's optimized legs are Figure 4.1's FLASH
// legs and its unoptimized legs run without special instructions.
func TestSec53(t *testing.T) {
	_, runs := declared(t, tinyOptions(), "fig4.1", "sec5.3")
	fig := map[string]*job{}
	for _, j := range legs(runs[0], 0) {
		fig[j.app] = j
	}
	for _, j := range legs(runs[1], 0) {
		if fig[j.app] != j {
			t.Errorf("%s: sec5.3's optimized leg is not fig4.1's FLASH leg", j.app)
		}
	}
	for _, j := range legs(runs[1], 1) {
		if j.cfg.PPMode != arch.PPNoSpecial {
			t.Errorf("%s: unoptimized leg runs PP mode %v", j.app, j.cfg.PPMode)
		}
	}
}

// TestPaperRows checks the table itself: each row names an experiment that
// exists, an experiment's rows are contiguous (check declares each once),
// no row is listed twice, every range and tolerance is well formed, and
// sec4.5, which no test runs, finds its rows.
func TestPaperRows(t *testing.T) {
	pl := &planner{registry: experiments}
	seen := map[string]bool{}
	for i, r := range paperRows {
		if _, err := pl.lookup(r.exp); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
		if i > 0 && paperRows[i-1].exp != r.exp && seen[r.exp] {
			t.Errorf("row %d: %s's rows are not contiguous", i, r.exp)
		}
		seen[r.exp] = true
		if findRow(r.exp, r.row, r.metric) != &paperRows[i] {
			t.Errorf("row %d: %s / %s / %s is listed twice", i, r.exp, r.row, r.metric)
		}
		if r.lo > r.hi || r.tol < 0 || r.why == "" || r.source == "" {
			t.Errorf("row %d: range %g-%g, tolerance %g, why %q, source %q", i, r.lo, r.hi, r.tol, r.why, r.source)
		}
	}
	p, err := NewPlan(tinyOptions(), []string{"sec4.5"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.exps[0].render(nil); err != nil {
		t.Error(err)
	}
}

// TestCheckFailsOnlyRowsOfFailedRun breaks one run check declares, Figure
// 4.1's radix FLASH leg: the rows measured from it (Figure 4.1's and Table
// 4.1's radix rows, and the suite rows of Tables 5.1 and 5.2 and Section
// 5.3, which read that leg too) FAIL with its error, no other row sees it,
// and check still prints every row.
func TestCheckFailsOnlyRowsOfFailedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOptions()
	o.Verify = false
	p, err := NewPlan(o, []string{"check"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.appConfig("radix", 16, 1<<20)
	cfg.Kind = arch.KindFLASH
	broken := 0
	for _, j := range p.jobs {
		if runKey(j.cfg, j.app, j.p) == runKey(cfg, "radix", o.paramsFor(16)) {
			j.app = "broken"
			broken++
		}
	}
	if broken != 1 {
		t.Fatalf("%d jobs are fig4.1's radix FLASH leg, want 1", broken)
	}
	var out string
	if err := p.Execute(func(_, s string) { out = s }); err != nil {
		t.Fatalf("check stopped on a failed run: %v", err)
	}
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "| ") && !strings.HasPrefix(l, "| Source |") {
			rows = append(rows, l)
		}
	}
	if len(rows) != len(paperRows) {
		t.Fatalf("check printed %d rows, want %d:\n%s", len(rows), len(paperRows), out)
	}
	failure := `| FAIL | apps: unknown application "broken" |`
	for i, r := range paperRows {
		fromLeg := r.exp == "fig4.1" && r.row == "radix" || r.exp == "table5.1" ||
			r.exp == "table5.2" && r.row == "suite" || r.exp == "sec5.3"
		if got := strings.HasSuffix(rows[i], failure); got != fromLeg {
			t.Errorf("%s / %s / %s: failed with the broken leg %v, want %v:\n%s", r.exp, r.row, r.metric, got, fromLeg, rows[i])
		}
	}
}
