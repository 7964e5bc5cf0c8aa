package apps

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/memsys"
	"flashsim/internal/workload"
)

// TestMP3DVerifyNamesCorruptWord runs MP3D, then corrupts one word of each
// of the six particle arrays and each of a cell's two tallies in turn:
// Verify must fail naming the corrupted word each time, and pass again once
// it is restored.
func TestMP3DVerifyNamesCorruptWord(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		t.Run(kind.String(), func(t *testing.T) {
			mc, err := core.New(smallConfig(kind, 0))
			if err != nil {
				t.Fatal(err)
			}
			w := workload.NewWorld(mc)
			m := newMP3D(w, Params{Procs: 4, Scale: 25})
			if err := w.Run(m.run, 2_000_000_000); err != nil {
				t.Fatal(err)
			}
			if err := m.verify(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			const i, cell = 1234, 77
			type target struct {
				a    arch.Addr
				want string
			}
			var targets []target
			for f, a := range m.fields {
				targets = append(targets, target{a.Addr(i), fmt.Sprintf("mp3d: particle %d %s = ", i, mp3dFieldNames[f])})
			}
			targets = append(targets,
				target{m.cnt.Addr(cell), fmt.Sprintf("mp3d: cell %d count = ", cell)},
				target{m.eng.Addr(cell), fmt.Sprintf("mp3d: cell %d energy = ", cell)})
			for _, tg := range targets {
				word := mc.Word(tg.a)
				*word ^= 1
				err := m.verify()
				*word ^= 1
				if err == nil || !strings.HasPrefix(err.Error(), tg.want) {
					t.Errorf("Verify after corrupting %#x = %v, want %q...", tg.a, err, tg.want)
				}
			}
			if err := m.verify(); err != nil {
				t.Fatalf("restored run: %v", err)
			}
		})
	}
}

// TestMP3DBuildHoldsNoParticleCopy pins the native footprint of BuildMP3D:
// what it allocates beyond the simulated pages it writes must stay below
// one native copy of the particles (six 8-byte fields each), because its
// Verify re-derives every particle from the initial-condition stream.
func TestMP3DBuildHoldsNoParticleCopy(t *testing.T) {
	mc, err := core.New(smallConfig(arch.KindFLASH, 0))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewWorld(mc)
	p := Params{Procs: 4, Scale: 5}
	n := uint64(p.scaled(50000)) // a multiple of Procs: no rounding
	pages := mc.Backing.Pages()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildMP3D(w, p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	pages = mc.Backing.Pages() - pages
	native := after.TotalAlloc - before.TotalAlloc - uint64(pages*memsys.PageBytes)
	t.Logf("BuildMP3D of %d particles: %d simulated pages, %d native bytes", n, pages, native)
	if limit := n * 48; native >= limit {
		t.Fatalf("BuildMP3D allocated %d bytes besides its %d simulated pages, want below %d (%d particles x 48 bytes)", native, pages, limit, n)
	}
}
