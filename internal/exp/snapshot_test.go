package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
	"flashsim/internal/workload"
)

// TestSnapshotRoundTrip pauses every golden app mid-run, captures the
// machine, restores the capture into a fresh machine and captures that: the
// two snapshots must be deeply equal and the two data stores equal word for
// word. This is the evidence for Snapshot and Restore, which only the repo
// benchmark's probes call.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range apps.Names {
		t.Run(name, func(t *testing.T) {
			cfg := goldenAppConfig(name)
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.NewWorld(m)
			app, err := apps.Build(name, w, apps.Params{Scale: goldenScales[name]})
			if err != nil {
				t.Fatal(err)
			}
			// Every golden app retires at least 3 400 references per
			// processor (fft is the smallest), so a pause at 1 000 catches
			// every processor mid-run.
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
		})
	}
}

// TestMachineResetDeterminism recycles one machine through Reset and
// requires the second run to match a fresh machine's run: the same events
// and the same whole report, occupancy curves included. It covers every
// golden app on FLASH, on the ideal machine and on a sampled FLASH machine
// (whose store views stay write-through across Reset).
func TestMachineResetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	machines := []struct {
		name string
		set  func(*arch.Config)
	}{
		{"flash", func(*arch.Config) {}},
		{"ideal", func(cfg *arch.Config) { cfg.Kind = arch.KindIdeal }},
		{"sampled", func(cfg *arch.Config) { cfg.Sample = arch.DefaultSampleSpec() }},
	}
	for _, mc := range machines {
		for _, name := range apps.Names {
			t.Run(mc.name+"/"+name, func(t *testing.T) {
				cfg := goldenAppConfig(name)
				mc.set(&cfg)
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				events, fresh := runGolden(t, m, name, 0)
				limit := 2 * uint64(m.Elapsed) // a recycled machine that hangs fails here
				m.Reset()
				if ev, recycled := runGolden(t, m, name, limit); ev != events || !bytes.Equal(recycled, fresh) {
					t.Errorf("recycled run (%d events) differs from the fresh run (%d events):\nrecycled %s\nfresh    %s", ev, events, recycled, fresh)
				}
			})
		}
	}
}

// TestMachineResetAfterAbortedRun stops every golden app, on FLASH and on
// the ideal machine, at a cycle limit halfway through its run, with misses,
// handlers and messages in flight, and recycles the machine through Reset:
// its next run must match a fresh run event for event and in the whole
// stats report. This is the evidence that a restore empties each unit's
// in-flight record; TestMachineResetDeterminism only recycles finished
// machines, whose records are already empty.
func TestMachineResetAfterAbortedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		for _, name := range apps.Names {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				cfg := goldenAppConfig(name)
				cfg.Kind = kind
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				events, fresh := runGolden(t, m, name, 0)
				limit, half := 2*uint64(m.Elapsed), uint64(m.Elapsed)/2
				m.Reset()
				w := workload.NewWorld(m)
				app, err := apps.Build(name, w, apps.Params{Scale: goldenScales[name]})
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Run(app.Run, half); !errors.Is(err, sim.ErrLimit) {
					t.Fatalf("run limited to cycle %d: %v, want the cycle limit", half, err)
				}
				m.Reset()
				if ev, recycled := runGolden(t, m, name, limit); ev != events || !bytes.Equal(recycled, fresh) {
					t.Errorf("run after an aborted one (%d events) differs from the fresh run (%d events):\nafter abort %s\nfresh       %s", ev, events, recycled, fresh)
				}
			})
		}
	}
}

// TestStuckRunErrorNamesEveryNode pins the stuck-run report: fft on four
// processors stopped at cycle 2000 returns the cycle-limit error, carrying
// one cpu and one magic line per node, and a controller with a handler in
// flight names its entry and its wait.
func TestStuckRunErrorNamesEveryNode(t *testing.T) {
	m, err := core.New(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build("fft", w, apps.Params{Scale: 64})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(app.Run, 2000)
	if !errors.Is(err, sim.ErrLimit) {
		t.Fatalf("run limited to cycle 2000: %v, want the cycle limit", err)
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 1+2*len(m.Nodes) {
		t.Fatalf("error has %d lines, want the limit and a cpu and a magic line for each of %d nodes:\n%v", len(lines), len(m.Nodes), err)
	}
	inFlight := 0
	for i := range m.Nodes {
		cpuLine, magicLine := lines[1+2*i], lines[2+2*i]
		if !strings.HasPrefix(cpuLine, fmt.Sprintf("cpu%d: done=false ", i)) || !strings.HasPrefix(magicLine, fmt.Sprintf("magic%d: qPI=", i)) {
			t.Errorf("node %d lines:\n%s\n%s", i, cpuLine, magicLine)
		}
		entry, ok := strings.CutPrefix(magicLine[strings.Index(magicLine, " handler=")+1:], "handler={busy=true entry=")
		if !ok {
			continue
		}
		inFlight++
		name, _, _ := strings.Cut(entry, " ")
		if _, known := m.Prog.Code.Entries[name]; !known || !strings.Contains(entry, " wait=") {
			t.Errorf("node %d's handler in flight is not named by its entry and wait: %s", i, magicLine)
		}
	}
	if inFlight == 0 {
		t.Errorf("no controller has a handler in flight at cycle 2000:\n%v", err)
	}
}

// runGolden runs golden app name to completion on m, bounded by limit
// cycles (0 = none), verifies it, and returns the engine events it executed
// and its whole stats report.
func runGolden(t *testing.T, m *core.Machine, name string, limit uint64) (uint64, []byte) {
	t.Helper()
	w := workload.NewWorld(m)
	app, err := apps.Build(name, w, apps.Params{Scale: goldenScales[name]})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(app.Run, limit); err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	rep, err := stats.Collect(m).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return m.Eng.ExecutedEvents(), rep
}
