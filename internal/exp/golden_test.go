package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digest*.json from the current tree")

// goldenDigest is one application's determinism fingerprint: the parallel
// execution time and the total number of simulation events dispatched. Any
// change to simulated behavior — event ordering, reference timing, protocol
// scheduling — moves at least one of the two.
type goldenDigest struct {
	Elapsed  uint64 `json:"elapsed_cycles"`
	Executed uint64 `json:"events_executed"`
}

// goldenConfig is the fixed small machine the digests are recorded on: 4
// FLASH nodes, default caches, problem sizes matching the apps package's
// determinism suite (small enough to keep the whole sweep to seconds).
func goldenConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 4 << 20
	return cfg
}

// goldenAppConfig is goldenConfig as the golden suites run name on it: os
// places its pages round-robin.
func goldenAppConfig(name string) arch.Config {
	cfg := goldenConfig()
	if name == "os" {
		cfg.Placement = arch.PlaceRoundRobin
	}
	return cfg
}

// goldenBackends is the host-backend matrix the golden suites run over: every
// row must reproduce the same recorded digests, which is the whole claim the
// backends make (host speed only, simulated behaviour bit-identical).
var goldenBackends = []struct {
	name     string
	engine   arch.EngineKind
	sync     arch.EngineSync
	dispatch arch.PPDispatch
	maxprocs int // GOMAXPROCS for the row (0 = the host's)
}{
	{name: "seq-compiled"},
	{name: "seq-interp", dispatch: arch.PPDispatchInterp},
	{name: "sharded-barrier", engine: arch.EngineSharded},
	{name: "sharded-barrier-maxprocs1", engine: arch.EngineSharded, maxprocs: 1},
	{name: "sharded-watermark", engine: arch.EngineSharded, sync: arch.EngineSyncWatermark},
}

// goldenSuite runs digest over every application on every goldenBackends
// row, one subtest per row, on the golden machine as machine alters it, and
// compares the digests with testdata/file. With update set, the first row
// (the default backend) rewrites the file and the remaining rows check
// themselves against it.
func goldenSuite(t *testing.T, file string, machine func(*arch.Config), update bool, digest func(t *testing.T, name string, cfg arch.Config) goldenDigest) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join("testdata", file)
	for i, b := range goldenBackends {
		t.Run(b.name, func(t *testing.T) {
			if b.maxprocs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(b.maxprocs))
			}
			got := map[string]goldenDigest{}
			for _, name := range apps.Names {
				cfg := goldenAppConfig(name)
				cfg.Engine, cfg.EngineSync, cfg.PPDispatch = b.engine, b.sync, b.dispatch
				machine(&cfg)
				got[name] = digest(t, name, cfg)
			}
			if update && i == 0 {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
			}
			want := readGolden(t, file)
			for _, name := range apps.Names {
				w, ok := want[name]
				if !ok {
					t.Errorf("%s: no digest recorded in %s", name, file)
					continue
				}
				if got[name] != w {
					t.Errorf("%s: digest %+v, want %+v (simulated behavior changed)", name, got[name], w)
				}
			}
		})
	}
}

// readGolden loads one of the testdata digest files.
func readGolden(t *testing.T, file string) map[string]goldenDigest {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("missing golden digests (run with -update-golden to record): %v", err)
	}
	want := map[string]goldenDigest{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// runDigest runs one application at its golden scale and fingerprints it.
func runDigest(t *testing.T, name string, cfg arch.Config) goldenDigest {
	r, err := RunApp(name, cfg, apps.Params{Scale: goldenScales[name]}, true)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return goldenDigest{
		Elapsed:  uint64(r.Report.Elapsed),
		Executed: r.Report.Events,
	}
}

// TestGoldenDigest locks down per-run cycle counts and event counts against
// values recorded from the pre-optimization tree, on every host backend.
// Performance work on the event queue, the handshake path, or experiment
// parallelism must leave these bit-identical; regenerate with -update-golden
// only for intentional model changes.
func TestGoldenDigest(t *testing.T) {
	goldenSuite(t, "golden_digest.json", func(*arch.Config) {}, *updateGolden, runDigest)
}

// TestGoldenDigestMesh is TestGoldenDigest on the 2-D mesh network model:
// per-pair transit latencies, with every backend's lookahead at the mesh's
// minimum pair transit.
func TestGoldenDigestMesh(t *testing.T) {
	goldenSuite(t, "golden_digest_mesh.json", func(c *arch.Config) { c.NetModel = arch.NetMesh }, *updateGolden, runDigest)
}

// TestGoldenDigestNetQueue1 is TestGoldenDigest with a one-entry outgoing
// network queue in every MAGIC. The default queue never fills on the golden
// machine; this one refuses sends on every app, so the handler's
// blocked-send and wake paths are pinned cycle for cycle.
func TestGoldenDigestNetQueue1(t *testing.T) {
	goldenSuite(t, "golden_digest_netq1.json", func(c *arch.Config) { c.NetQueueCap = 1 }, *updateGolden, runDigest)
}
