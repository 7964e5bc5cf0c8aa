package exp

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/workload"
)

// executeAll runs a plan of the named experiments and returns their outputs
// joined in emit order.
func executeAll(o Options, names ...string) (string, error) {
	p, err := NewPlan(o, names)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = p.Execute(func(name, out string) { b.WriteString("== " + name + "\n" + out) })
	return b.String(), err
}

// TestPlanParallelDeterminism is the planner's concurrency guard (the -race
// target in make verify). A plan renders the same bytes with one, two and
// eight workers; runs dedupe by the resolved machine, not by the declared
// config; and failures — a panicking app builder among them — come back as
// one error naming the experiment and each failed application in
// declaration order, with the process still standing and nothing after the
// failed experiment emitted.
func TestPlanParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Ablations' 64 KB OS row is Section 5.2's OS run: 18 runs, 17 machines.
	o := Options{Scale: 256, Verify: true}
	names := []string{"sec5.2", "ablations"}
	if p, err := NewPlan(o, names); err != nil || p.Runs() != 18 || p.Simulations() != 17 {
		t.Fatalf("plan %v: err %v; want 18 runs, 17 simulated", names, err)
	}
	var want string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := executeAll(o, names...)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if want == "" {
			want = got
		}
		if got != want {
			t.Errorf("GOMAXPROCS %d: output differs from GOMAXPROCS 1's:\n%s\nwant:\n%s", procs, got, want)
		}
	}

	// The network ablation's 22-cycle pair sets the transit Figure 4.1
	// leaves to be derived (22 at 16 nodes): the same two machines.
	_, runs := declared(t, tinyOptions(), "fig4.1", "ablations")
	fft, transit := runs[0][2:4], runs[1][4:12] // fig4.1's fft pair; ablations' 11/22/44/88 pairs
	if !sameJobs(transit[2:4], fft) {
		t.Error("the transit-22 ablation pair does not share fig4.1's fft jobs")
	}
	for i, j := range transit {
		if i/2 != 1 && (j == fft[0] || j == fft[1]) {
			t.Errorf("ablation run %d (transit %d) shares a fig4.1 job", i, []int{11, 22, 44, 88}[i/2])
		}
	}

	apps.Builders["boom-build"] = func(*workload.World, apps.Params) (*apps.App, error) {
		panic("builder exploded")
	}
	apps.Builders["bad-build"] = func(*workload.World, apps.Params) (*apps.App, error) {
		return nil, errors.New("bad size")
	}
	experiments = append(experiments, experiment{"boom", func(pl *planner) render {
		cfg, p := pl.o.baseConfig(4), pl.o.paramsFor(4)
		pl.pair("boom-build", cfg, p)
		pl.run("bad-build", cfg, p)
		return func() (string, error) { return "rendered a failed experiment\n", nil }
	}})
	defer func() {
		experiments = experiments[:len(experiments)-1]
		delete(apps.Builders, "boom-build")
		delete(apps.Builders, "bad-build")
	}()
	out, err := executeAll(tinyOptions(), "table5.3", "boom", "table5.3")
	if err == nil {
		t.Fatal("a plan with failing builders succeeded")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "boom: boom-build: panic: builder exploded\n") || !strings.HasSuffix(msg, "\nbad-build: bad size") {
		t.Errorf("error %q: want the boom-build panic, then bad-build's error, under the experiment's name", msg)
	}
	if strings.Count(out, "== ") != 1 || !strings.HasPrefix(out, "== table5.3\n") {
		t.Errorf("emitted %q; want table5.3 only", out)
	}
}
