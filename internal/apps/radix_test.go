package apps

import (
	"fmt"
	"slices"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

// TestRadixVerifyNamesFirstMismatch runs radix, then corrupts its sorted
// result, swapping two keys or overwriting one with a copy of another, one
// corruption at a time: Verify, which sorts the keys one range of their
// top bits at a time, must return exactly the error that comparing with
// every key sorted at once predicts, and pass again once the result is
// restored.
func TestRadixVerifyNamesFirstMismatch(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		t.Run(kind.String(), func(t *testing.T) {
			mc, err := core.New(smallConfig(kind, 0))
			if err != nil {
				t.Fatal(err)
			}
			w := workload.NewWorld(mc)
			p := Params{Procs: 4, Scale: 64}
			app, final := buildRadix(w, p)
			if err := w.Run(app.Run, 2_000_000_000); err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			n := RadixKeys(p)
			ref := make([]uint64, n)
			keys := newRadixKeys()
			for i := range ref {
				ref[i] = keys.next()
			}
			slices.Sort(ref)
			predict := func() error {
				for i, want := range ref {
					if got := *mc.Word(final.Addr(i)); got != want {
						return fmt.Errorf("radix: key[%d] = %d, want %d", i, got, want)
					}
				}
				return nil
			}
			word := func(i int) *uint64 { return mc.Word(final.Addr(i)) }
			corruptions := []struct {
				name string
				i, j int
				dup  bool
			}{
				{"swap across ranges", 100, n - 300, false},
				{"swap neighbours", 2000, 2001, false},
				{"duplicate a lower key", 3000, 2500, true},
				{"duplicate a higher key", 700, 3900, true},
			}
			for _, c := range corruptions {
				a, b := word(c.i), word(c.j)
				was := [2]uint64{*a, *b}
				if c.dup {
					*a = *b
				} else {
					*a, *b = *b, *a
				}
				got, want := app.Verify(), predict()
				*a, *b = was[0], was[1]
				if want == nil || got == nil || got.Error() != want.Error() {
					t.Errorf("%s (keys %d, %d): Verify = %v, want %v", c.name, c.i, c.j, got, want)
				}
			}
			if err := app.Verify(); err != nil {
				t.Fatalf("restored run: %v", err)
			}
		})
	}
}
