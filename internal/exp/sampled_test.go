package exp

import (
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
)

// sampledDigest fingerprints a sampled run: the raw behavioral digest plus
// the extrapolation outputs. Two runs with the same SampleSpec must agree on
// every field.
type sampledDigest struct {
	goldenDigest
	Est uint64
	CI  uint64
	FF  uint64
}

func sampledDigestOf(r *Run) sampledDigest {
	d := sampledDigest{goldenDigest: goldenDigest{
		Elapsed:  uint64(r.Report.Elapsed),
		Executed: r.Report.Events,
	}}
	if s := r.Report.Sampled; s != nil {
		d.Est, d.CI, d.FF = s.ElapsedEst, s.ElapsedCI, s.FFWorkRefs
	}
	return d
}

// TestSampledDetailFraction1 locks the sampling off-switch down: a machine
// configured with a Stride-0 SampleSpec (detailed fraction 1.0) must be
// bit-identical to the recorded golden digests on every backend combination
// — the sampling plumbing may cost nothing and change nothing until a
// positive Stride turns it on.
func TestSampledDetailFraction1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want := readGolden(t, "golden_digest.json")
	for _, eng := range []arch.EngineKind{arch.EngineSeq, arch.EngineSharded} {
		for _, pp := range []arch.PPDispatch{arch.PPDispatchInterp, arch.PPDispatchCompiled} {
			for _, name := range []string{"fft", "lu", "radix"} {
				cfg := goldenConfig()
				cfg.Engine = eng
				cfg.PPDispatch = pp
				// Stride 0 with a non-zero field: a spec that is not the
				// zero value and still must not sample.
				cfg.Sample = arch.SampleSpec{Detail: 1}
				r, err := RunApp(name, cfg, apps.Params{Scale: goldenScales[name]}, true)
				if err != nil {
					t.Fatalf("%s (%v/%v): %v", name, eng, pp, err)
				}
				got := goldenDigest{
					Elapsed:  uint64(r.Report.Elapsed),
					Executed: r.Report.Events,
				}
				if got != want[name] {
					t.Errorf("%s (%v/%v): digest %+v, want golden %+v", name, eng, pp, got, want[name])
				}
				if r.Report.Sampled != nil {
					t.Errorf("%s (%v/%v): detailed-fraction-1.0 run grew a Sampled report section", name, eng, pp)
				}
			}
		}
	}
}

// TestSampledRepeatable runs every application twice under the same sampled
// schedule and requires bit-identical digests and extrapolations: sampling
// is an intentional timing-model change, but a deterministic one. Verify
// stays on, so this doubles as the functional-correctness closure for the
// fast-forward path (architectural state, memory values, coherence).
func TestSampledRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := arch.SampleSpec{Detail: 500, Stride: 3500, Warmup: 2000}
	for _, name := range apps.Names {
		var d [2]sampledDigest
		for i := range d {
			cfg := goldenAppConfig(name)
			cfg.Sample = spec
			r, err := RunApp(name, cfg, apps.Params{Scale: goldenScales[name]}, true)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if r.Report.Sampled == nil {
				t.Fatalf("%s run %d: sampled run has no extrapolation section", name, i)
			}
			d[i] = sampledDigestOf(r)
		}
		if d[0] != d[1] {
			t.Errorf("%s: sampled runs differ: %+v vs %+v", name, d[0], d[1])
		}
	}
}
