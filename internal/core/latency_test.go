package core

import (
	"testing"

	"flashsim/internal/arch"
)

func testConfig(kind arch.MachineKind) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = kind
	cfg.MemBytesPerNode = 1 << 20
	return cfg
}

// TestTable33 reproduces the no-contention read miss latencies of Table 3.3
// for both machines. The FLASH figures depend on our handler code, so the
// tolerances are loose; the ideal figures follow directly from Table 3.2
// and must be tight.
func TestTable33(t *testing.T) {
	paper := map[string]struct {
		ideal, flash, occ int
	}{
		"Local read miss, clean in local memory": {24, 27, 11},
		"Local read miss, dirty in remote cache": {100, 143, 53},
		"Remote read miss, clean in home memory": {92, 111, 16},
		"Remote read miss, dirty in home cache":  {100, 145, 53},
		"Remote read miss, dirty in 3rd node":    {136, 191, 61},
	}
	for _, kind := range []arch.MachineKind{arch.KindIdeal, arch.KindFLASH} {
		cfg := testConfig(kind)
		for _, sc := range MissScenarios(&cfg) {
			lat, occ, err := ProbeMiss(cfg, sc)
			if err != nil {
				t.Fatalf("%v %s: %v", kind, sc.Name, err)
			}
			want := paper[sc.Name].ideal
			tol := 4
			if kind == arch.KindFLASH {
				want = paper[sc.Name].flash
				tol = 25
			}
			t.Logf("%-5v %-45s latency=%3d (paper %3d)  ppocc=%d (paper %d)",
				kind, sc.Name, lat, want, occ, paper[sc.Name].occ)
			if int(lat) < want-tol || int(lat) > want+tol {
				t.Errorf("%v %s: latency %d, paper %d (tolerance %d)", kind, sc.Name, lat, want, tol)
			}
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
