package exp

import (
	"bytes"
	"reflect"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
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
// (whose store views stay write-through across Reset), all with occupancy
// sampling on.
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
				m.EnableOccSampling(1000)
				run := func(limit uint64) (uint64, []byte) {
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
				events, fresh := run(0)
				limit := 2 * uint64(m.Elapsed) // a recycled machine that hangs fails here
				m.Reset()
				if ev, recycled := run(limit); ev != events || !bytes.Equal(recycled, fresh) {
					t.Errorf("recycled run (%d events) differs from the fresh run (%d events):\nrecycled %s\nfresh    %s", ev, events, recycled, fresh)
				}
			})
		}
	}
}
