package exp

import (
	"strings"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
)

// The tests below pin the simulator's two open correctness faults (ROADMAP
// items 1 and 2) at their exact present symptoms, so a change that moves
// either one shows here. The fix for each flips its test.

// TestRadixReprosFail pins radix's wrong answers on flashsim's defaults (16
// processors, 1 MB caches, 8 MB per node, first-touch placement): three
// runs that verify to a wrong key, and two whose threads index past an
// array's end.
func TestRadixReprosFail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name  string
		scale int
		kind  arch.MachineKind
		net   arch.NetModel
		proto arch.Protocol
		want  string
	}{
		{"scale3-ideal", 3, arch.KindIdeal, arch.NetUniform, arch.ProtoDynPtr, "radix: key[0] = 0, want 19235"},
		{"scale4-mesh-ideal", 4, arch.KindIdeal, arch.NetMesh, arch.ProtoDynPtr, "radix: key[18] = 1057703, want 1015857"},
		{"scale4-bitvec-flash", 4, arch.KindFLASH, arch.NetUniform, arch.ProtoBitVector, "radix: key[529] = 33848658, want 33970298"},
		{"scale1-ideal", 1, arch.KindIdeal, arch.NetUniform, arch.ProtoDynPtr,
			"thread 15 (node 15) panicked at cycle 333951: workload: index 262175 out of range [0,262144)"},
		{"scale8-mesh-flash", 8, arch.KindFLASH, arch.NetMesh, arch.ProtoDynPtr,
			"thread 15 (node 15) panicked at cycle 353498: workload: index 32781 out of range [0,32768)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Options{NetModel: tc.net}.baseConfig(16)
			cfg.Kind, cfg.Placement, cfg.Protocol = tc.kind, arch.PlaceFirstTouch, tc.proto
			_, err := RunApp("radix", cfg, apps.Params{Procs: 16, Scale: tc.scale}, true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("radix -scale %d on %v/%v/%v: error %v; want one containing %q", tc.scale, tc.kind, tc.net, tc.proto, err, tc.want)
			}
		})
	}
}

// TestOceanMemoryBacklog pins Section 4.5's livelock: Ocean on 64
// processors at -scale 4 with 2 MB per node does not finish within 3 M
// cycles, and by then node 0's memory controller, the home of the sync line
// every processor spins on, has had more than a thousand line accesses
// booked ahead of a single access.
func TestOceanMemoryBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Options{}.baseConfig(64)
	cfg.MemBytesPerNode = 2 << 20
	cfg.Placement = arch.PlaceFirstTouch
	run, err := RunAppObserved("ocean", cfg, apps.Params{Procs: 64, Scale: 4}, false, 3_000_000, nil)
	if err == nil || !strings.Contains(err.Error(), "cycle limit exceeded") || run == nil {
		t.Fatalf("ocean on 64 processors: %v; want the cycle limit and a partial report", err)
	}
	r := run.Report
	t.Logf("node 0 memory backlog high-water mark: %d line accesses", r.PerNode[0].MemBacklogMax)
	if got := r.PerNode[0].MemBacklogMax; got <= 1000 {
		t.Errorf("node 0's memory backlog peaked at %d line accesses; want more than 1000 (the livelock)", got)
	}
}
