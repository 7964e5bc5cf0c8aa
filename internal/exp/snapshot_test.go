package exp

import (
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

// TestSnapshotRoundTrip pauses fft mid-run, captures the machine, restores
// the capture into a fresh machine and captures that: the two snapshots must
// be deeply equal and the two data stores equal word for word. This is the
// evidence for Snapshot and Restore, which only the repo benchmark's probes
// call.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := goldenConfig()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build("fft", w, apps.Params{Scale: goldenScales["fft"]})
	if err != nil {
		t.Fatal(err)
	}
	// fft at this size retires about 3 500 references per processor, so a
	// pause at 1 000 catches every processor mid-run.
	if _, err := w.RunPrefix(app.Run, 1000, 0); err != nil {
		t.Fatal(err)
	}
	for i, n := range m.Nodes {
		if !n.CPU.Paused() {
			t.Fatalf("processor %d did not pause: %s", i, n.CPU.DebugState())
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	again, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, again) {
		t.Error("snapshot of the restored machine differs from the snapshot restored")
	}
	words := uint64(cfg.Nodes * cfg.MemBytesPerNode / 8)
	for i := uint64(0); i < words; i++ {
		if a, b := m.Backing.Load(i), m2.Backing.Load(i); a != b {
			t.Fatalf("data store differs at word %d: donor %#x, restored %#x", i, a, b)
		}
	}
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
