package exp

import (
	"encoding/json"
	"flag"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
)

var updateForkGolden = flag.Bool("update-fork-golden", false, "rewrite testdata/golden_fork.json from the current tree")

// forkPauseRefs is where the phased runs pause: far enough in that the
// snapshot catches warmed caches, in-flight sharing patterns, and consumed
// synchronization, small enough that every application still has most of
// its work left to run after the fork.
const forkPauseRefs = 20000

// phasedLegs runs one application both ways around a checkpoint: the cold
// leg pauses at forkPauseRefs, checkpoints, and resumes in place; the warm
// leg restores the checkpoint into a second machine and resumes there. It
// verifies application results and coherence on both machines, the
// executed-event sum identity, and that the two statistics reports are
// deeply equal, then returns the (shared) digest.
func phasedLegs(t *testing.T, name string, cfg arch.Config) goldenDigest {
	t.Helper()
	p := apps.Params{Scale: goldenScales[name]}

	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build(name, w, p)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := w.RunPrefix(app.Run, forkPauseRefs, 0)
	if err != nil {
		t.Fatalf("prefix: %v", err)
	}
	ck, err := pre.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := pre.Resume(); err != nil {
		t.Fatalf("cold resume: %v", err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("cold coherence: %v", err)
	}
	cold := goldenDigest{Elapsed: uint64(m.Elapsed), Executed: m.Eng.ExecutedEvents()}
	coldRep := stats.Collect(m)

	m2, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := w.Fork(ck, m2, app.Run, 0)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	forkExec := m2.Eng.ExecutedEvents()
	warm := goldenDigest{Elapsed: uint64(m2.Elapsed), Executed: ck.Snap.Executed + forkExec}

	// The fork executes exactly the events the cold continuation does: the
	// cold total splits into prefix + fork with nothing lost or repeated.
	if warm.Executed != cold.Executed {
		t.Errorf("executed-sum identity broken: prefix %d + fork %d != cold %d",
			ck.Snap.Executed, forkExec, cold.Executed)
	}
	if warm != cold {
		t.Errorf("fork digest %+v != cold digest %+v", warm, cold)
	}

	// Verify the forked machine's computed result (Verify closures are
	// one-shot — several applications factor or advance their host-side
	// reference in place — so the single call goes to the fork; the cold
	// leg is covered by the word-for-word memory comparison below). The
	// application reads through its build-time world, so point that world
	// at the forked machine for the check.
	w.M = m2
	if err := app.Verify(); err != nil {
		t.Errorf("fork verify: %v", err)
	}
	w.M = m
	if err := m2.CheckCoherence(); err != nil {
		t.Errorf("fork coherence: %v", err)
	}

	// Cold and warm continuations must leave bit-identical memory images.
	words := uint64(cfg.Nodes * cfg.MemBytesPerNode / 8)
	for i := uint64(0); i < words; i++ {
		if a, b := m.Backing.Load(i), m2.Backing.Load(i); a != b {
			t.Errorf("memory diverged at word %d: cold %#x, fork %#x", i, a, b)
			break
		}
	}

	warmRep := stats.Collect(w2.M)
	if !reflect.DeepEqual(coldRep, warmRep) {
		cb, _ := json.Marshal(coldRep)
		wb, _ := json.Marshal(warmRep)
		t.Errorf("fork report differs from cold report:\ncold: %s\nwarm: %s", cb, wb)
	}
	return cold
}

// TestForkDeterminism pins the phased (pause + checkpoint + resume) digests
// of every Figure 4.1 application and requires the snapshot-forked
// continuation to be bit-identical to the cold continuation, on every host
// backend against the same recorded digests.
func TestForkDeterminism(t *testing.T) {
	goldenSuite(t, "golden_fork.json", *updateForkGolden, phasedLegs)
}

// TestMachineResetDeterminism recycles one machine through Reset and
// requires the second run to be bit-identical to a fresh machine's run.
func TestMachineResetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := goldenConfig()
	run := func(m *core.Machine) goldenDigest {
		t.Helper()
		w := workload.NewWorld(m)
		app, err := apps.Build("fft", w, apps.Params{Scale: goldenScales["fft"]})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(app.Run, 0); err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(); err != nil {
			t.Fatal(err)
		}
		return goldenDigest{Elapsed: uint64(m.Elapsed), Executed: m.Eng.ExecutedEvents()}
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh := run(m)
	m.Reset()
	if recycled := run(m); recycled != fresh {
		t.Errorf("recycled digest %+v != fresh digest %+v", recycled, fresh)
	}

	// The ideal machine's Reset must be just as deterministic.
	icfg := cfg
	icfg.Kind = arch.KindIdeal
	im, err := core.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	ifresh := run(im)
	im.Reset()
	if recycled := run(im); recycled != ifresh {
		t.Errorf("recycled ideal digest %+v != fresh ideal digest %+v", recycled, ifresh)
	}
}
