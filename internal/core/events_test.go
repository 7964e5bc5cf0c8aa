package core

import (
	"testing"

	"flashsim/internal/arch"
)

// missEventBudget is the number of engine events each Table 3.3 probe read
// costs, by machine kind, in MissScenarios order: differenced like ProbeMiss's
// latency (warm-up plus probe run minus warm-up run), so it counts the
// probe's miss alone. A network message costs one event: its delivery,
// which carries the MAGIC outbox injection before it and the NI inbound
// stage after it.
var missEventBudget = []struct {
	kind   arch.MachineKind
	events [5]uint64
}{
	{arch.KindFLASH, [5]uint64{5, 16, 11, 13, 19}},
	{arch.KindIdeal, [5]uint64{3, 7, 5, 6, 8}},
}

// TestMissPathEventBudget pins missEventBudget exactly, so an event added
// to the miss path — a hop reintroduced, a stage split in two — fails here
// before it shows up as wall time.
func TestMissPathEventBudget(t *testing.T) {
	for _, b := range missEventBudget {
		kind, want := b.kind, b.events
		cfg := testConfig(kind)
		for i, sc := range MissScenarios(&cfg) {
			base, err := probeRun(cfg, sc, false)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, sc.Name, err)
			}
			full, err := probeRun(cfg, sc, true)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, sc.Name, err)
			}
			got := full.Eng.ExecutedEvents() - base.Eng.ExecutedEvents()
			msgs := full.Net.TotalMsgs() - base.Net.TotalMsgs()
			t.Logf("%-5v %-45s %2d events, %d messages", kind, sc.Name, got, msgs)
			if got != want[i] {
				t.Errorf("%v %s: %d engine events, want %d", kind, sc.Name, got, want[i])
			}
		}
	}
}
