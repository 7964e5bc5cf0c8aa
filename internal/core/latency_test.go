package core

import (
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ideal"
)

func testConfig(kind arch.MachineKind) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = kind
	cfg.MemBytesPerNode = 1 << 20
	return cfg
}

// TestTable33 probes the five no-contention read misses of Table 3.3 on
// both machines and checks the shape the paper's table has: on each machine
// a local clean miss is the cheapest, then a remote clean miss, then a
// remote miss dirty at the home, then one dirty in a third node, and a
// local miss dirty in a remote cache costs more than a remote clean one;
// every FLASH miss is slower than its ideal twin and occupies the PP, the
// ideal machine's never does. exp.TestTable33 checks the figures
// themselves against the paper's.
func TestTable33(t *testing.T) {
	var lat, occ [2][arch.NumMissClasses]int
	for i, kind := range []arch.MachineKind{arch.KindIdeal, arch.KindFLASH} {
		cfg := testConfig(kind)
		for _, sc := range MissScenarios(&cfg) {
			l, o, err := ProbeMiss(cfg, sc)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, sc.Name, err)
			}
			t.Logf("%-5v %-45s latency=%3d ppocc=%d", kind, sc.Name, l, o)
			lat[i][sc.Class], occ[i][sc.Class] = int(l), int(o)
		}
	}
	for i, kind := range []arch.MachineKind{arch.KindIdeal, arch.KindFLASH} {
		l := lat[i]
		order := []arch.MissClass{arch.MissLocalClean, arch.MissRemoteClean, arch.MissRemoteDirtyHome, arch.MissRemoteDirty3rd}
		for j := 1; j < len(order); j++ {
			if l[order[j-1]] >= l[order[j]] {
				t.Errorf("%v: %v latency %d not below %v latency %d", kind, order[j-1], l[order[j-1]], order[j], l[order[j]])
			}
		}
		if l[arch.MissLocalDirty] <= l[arch.MissRemoteClean] {
			t.Errorf("%v: local dirty-remote latency %d not above remote clean latency %d", kind, l[arch.MissLocalDirty], l[arch.MissRemoteClean])
		}
	}
	for c := arch.MissClass(0); c < arch.NumMissClasses; c++ {
		if lat[0][c] >= lat[1][c] {
			t.Errorf("%v: ideal latency %d not below FLASH latency %d", c, lat[0][c], lat[1][c])
		}
		if occ[0][c] != 0 || occ[1][c] == 0 {
			t.Errorf("%v: PP occupancy ideal %d FLASH %d, want 0 and nonzero", c, occ[0][c], occ[1][c])
		}
	}
}

// TestIdealKeepsNetTransit pins that the network is shared, not part of the
// controller: an ideal machine built with an explicit transit keeps it, so
// its remote misses slow down with longer wires, and its key says so.
func TestIdealKeepsNetTransit(t *testing.T) {
	remoteClean := func(transit uint32) (arch.Config, int) {
		cfg := testConfig(arch.KindIdeal)
		cfg.Timing.NetTransit = transit
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range MissScenarios(&cfg) {
			if sc.Class == arch.MissRemoteClean {
				lat, _, err := ProbeMiss(cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				return m.Cfg, int(lat)
			}
		}
		t.Fatal("no remote-clean scenario")
		return cfg, 0
	}
	cfg22, lat22 := remoteClean(22)
	cfg44, lat44 := remoteClean(44)
	if got := cfg44.Timing.NetTransit; got != 44 {
		t.Errorf("ideal machine built at NetTransit 44 has %d", got)
	}
	if lat44 <= lat22 {
		t.Errorf("ideal remote-clean miss: %d cycles at transit 44, %d at 22; want more at 44", lat44, lat22)
	}
	if SimKeyFor(cfg22) == SimKeyFor(cfg44) {
		t.Error("ideal machines at transit 22 and 44 share a key")
	}
}

// TestIdealNodeLimit pins that an ideal machine too large for the oracle
// directory's 16-bit owner field is a construction error, not a silent
// truncation of owners.
func TestIdealNodeLimit(t *testing.T) {
	cfg := testConfig(arch.KindIdeal)
	cfg.Nodes = ideal.MaxNodes + 1
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "at most 65536 nodes") {
		t.Fatalf("New with %d ideal nodes: %v, want an error naming the limit", cfg.Nodes, err)
	}
}
