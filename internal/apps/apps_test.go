package apps

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

// smallConfig is a 4-node machine sized for unit tests.
func smallConfig(kind arch.MachineKind, cache int) arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Kind = kind
	cfg.Nodes = 4
	if cache > 0 {
		cfg.CacheSize = cache
	}
	cfg.MemBytesPerNode = 4 << 20
	return cfg
}

// runApp builds and runs the named app, verifying its computed result and
// machine coherence.
func runApp(t *testing.T, name string, cfg arch.Config, p Params) (*core.Machine, *App) {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := Build(name, w, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(app.Run, 2_000_000_000); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := app.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Elapsed == 0 {
		t.Fatalf("%s: no elapsed time", name)
	}
	return m, app
}

func TestFFTSmall(t *testing.T) {
	m, _ := runApp(t, "fft", smallConfig(arch.KindFLASH, 0), Params{Scale: 256}) // 256 points
	t.Logf("fft elapsed %d cycles", m.Elapsed)
}

func TestFFTIdeal(t *testing.T) {
	runApp(t, "fft", smallConfig(arch.KindIdeal, 0), Params{Scale: 256})
}

func TestFFTSmallCache(t *testing.T) {
	// 4 KB caches force capacity misses through the same math.
	runApp(t, "fft", smallConfig(arch.KindFLASH, 4<<10), Params{Scale: 256})
}

func TestLUSmall(t *testing.T) {
	m, _ := runApp(t, "lu", smallConfig(arch.KindFLASH, 0), Params{Scale: 8}) // 64x64
	t.Logf("lu elapsed %d cycles", m.Elapsed)
}

func TestLUIdeal(t *testing.T) {
	runApp(t, "lu", smallConfig(arch.KindIdeal, 0), Params{Scale: 8})
}

func TestRadixSmall(t *testing.T) {
	m, _ := runApp(t, "radix", smallConfig(arch.KindFLASH, 0), Params{Scale: 64}) // 4K keys
	t.Logf("radix elapsed %d cycles", m.Elapsed)
}

func TestRadixIdeal(t *testing.T) {
	runApp(t, "radix", smallConfig(arch.KindIdeal, 0), Params{Scale: 64})
}

func TestOceanSmall(t *testing.T) {
	m, _ := runApp(t, "ocean", smallConfig(arch.KindFLASH, 0), Params{Scale: 8}) // 32x32
	t.Logf("ocean elapsed %d cycles", m.Elapsed)
}

func TestOceanIdeal(t *testing.T) {
	runApp(t, "ocean", smallConfig(arch.KindIdeal, 0), Params{Scale: 8})
}

func TestMP3DSmall(t *testing.T) {
	m, _ := runApp(t, "mp3d", smallConfig(arch.KindFLASH, 0), Params{Scale: 25}) // 2K particles
	t.Logf("mp3d elapsed %d cycles", m.Elapsed)
}

func TestMP3DIdeal(t *testing.T) {
	runApp(t, "mp3d", smallConfig(arch.KindIdeal, 0), Params{Scale: 25})
}

func TestBarnesSmall(t *testing.T) {
	m, _ := runApp(t, "barnes", smallConfig(arch.KindFLASH, 0), Params{Scale: 16}) // 512 bodies
	t.Logf("barnes elapsed %d cycles", m.Elapsed)
}

func TestBarnesIdeal(t *testing.T) {
	runApp(t, "barnes", smallConfig(arch.KindIdeal, 0), Params{Scale: 16})
}

func TestOSSmall(t *testing.T) {
	cfg := smallConfig(arch.KindFLASH, 0)
	cfg.Placement = arch.PlaceRoundRobin
	m, _ := runApp(t, "os", cfg, Params{Scale: 8})
	t.Logf("os elapsed %d cycles", m.Elapsed)
}

func TestOSNodeZero(t *testing.T) {
	cfg := smallConfig(arch.KindFLASH, 0)
	cfg.Placement = arch.PlaceNodeZero
	runApp(t, "os", cfg, Params{Scale: 8})
}

// TestVerifyIsRepeatable runs each application once and verifies it twice:
// Verify re-derives its reference from the input generator Build used, so
// it consumes nothing a second call needs.
func TestVerifyIsRepeatable(t *testing.T) {
	scale := map[string]int{"barnes": 16, "fft": 256, "lu": 8, "mp3d": 25, "ocean": 8, "os": 8, "radix": 64}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(arch.KindFLASH, 0)
			if name == "os" {
				cfg.Placement = arch.PlaceRoundRobin
			}
			_, app := runApp(t, name, cfg, Params{Scale: scale[name]})
			if err := app.Verify(); err != nil {
				t.Errorf("second Verify: %v", err)
			}
		})
	}
}
