package core_test

import (
	"runtime"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

// TestAppRunAllocatesLittlePerHandler bounds what a whole application run —
// MP3D, the miss-heavy one, on four processors — allocates: under 16 bytes
// per handler executed. What remains is per run (thread coroutines, the
// first growth of rings, slabs and pools), not per message; a closure or a
// context per handler would put it at several hundred.
func TestAppRunAllocatesLittlePerHandler(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 4 << 20
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(m)
	a, err := apps.Build("mp3d", w, apps.Params{Procs: 4, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Run(a.Run, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var handlers uint64
	for _, n := range m.Nodes {
		handlers += n.Magic.Stats.Dispatches
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes for %d handlers: %.2f per handler", bytes, handlers, float64(bytes)/float64(handlers))
	if handlers < 100_000 {
		t.Fatalf("only %d handlers ran: not the miss-heavy run this test is about", handlers)
	}
	if bytes >= 16*handlers {
		t.Errorf("the run allocated %d bytes for %d handlers, %.1f per handler: want under 16", bytes, handlers, float64(bytes)/float64(handlers))
	}
}
