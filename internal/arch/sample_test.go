package arch

import (
	"math"
	"strings"
	"testing"
)

func TestParseSampleSpecForms(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SampleSpec
	}{
		{"", SampleSpec{}},
		{"off", SampleSpec{}},
		{"default", DefaultSampleSpec()},
		{"100/900", SampleSpec{Detail: 100, Stride: 900}},
		{"100/900/50", SampleSpec{Detail: 100, Stride: 900, Warmup: 50}},
		{"100/0", SampleSpec{Detail: 100}}, // Stride 0: sampling off
	} {
		got, err := ParseSampleSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSampleSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseSampleSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseSampleSpecErrors(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantSub string
	}{
		{"100", "want detail/stride"},
		{"1/2/3/4", "want detail/stride"},
		{"abc/900", "sample spec"},
		{"100/xyz", "sample spec"},
		{"100/-5", "sample spec"},
		{"/", "sample spec"},
		{"0/900", "positive Detail"}, // Validate: stride without a window
		{"1/18446744073709551615", "overflows uint64"},
	} {
		_, err := ParseSampleSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSampleSpec(%q): expected error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseSampleSpec(%q) error %q does not mention %q", tc.in, err, tc.wantSub)
		}
	}
}

// PhaseAt must agree with Detailed at every boundary cycle: warm-up end,
// fast-forward/detailed edges, and the cycles on either side of each.
func TestPhaseAtBoundaries(t *testing.T) {
	s := SampleSpec{Detail: 100, Stride: 900, Warmup: 50}
	period := s.Stride + s.Detail
	var probes []uint64
	add := func(c uint64) {
		if c > 0 {
			probes = append(probes, c-1)
		}
		probes = append(probes, c, c+1)
	}
	add(0)
	add(s.Warmup)
	for k := uint64(0); k < 3; k++ {
		add(s.Warmup + k*period + s.Stride) // fast-forward -> detailed edge
		add(s.Warmup + (k+1)*period)        // detailed -> fast-forward edge
	}
	for _, c := range probes {
		det, end := s.PhaseAt(c)
		if det != s.Detailed(c) {
			t.Errorf("PhaseAt(%d) detailed=%v disagrees with Detailed=%v", c, det, s.Detailed(c))
		}
		if end <= c {
			t.Errorf("PhaseAt(%d) end=%d not past the cycle", c, end)
		}
		// Every cycle inside [c, end) is in the same phase; end is not.
		if s.Detailed(end-1) != det {
			t.Errorf("PhaseAt(%d): cycle %d inside the phase disagrees", c, end-1)
		}
		if s.Detailed(end) == det {
			t.Errorf("PhaseAt(%d): end=%d still in the same phase", c, end)
		}
	}
}

// With Warmup 0 the first phase is fast-forward starting at cycle 0.
func TestPhaseAtWarmupZero(t *testing.T) {
	s := SampleSpec{Detail: 10, Stride: 90}
	det, end := s.PhaseAt(0)
	if det || end != 90 {
		t.Fatalf("PhaseAt(0) = (%v, %d), want (false, 90)", det, end)
	}
	det, end = s.PhaseAt(90)
	if !det || end != 100 {
		t.Fatalf("PhaseAt(90) = (%v, %d), want (true, 100)", det, end)
	}
}

// Stride 0 is the off switch: every cycle is detailed and
// DetailedCyclesThrough is the identity.
func TestStrideZeroOffSwitch(t *testing.T) {
	s := SampleSpec{Detail: 100}
	if s.Enabled() {
		t.Fatal("Stride 0 spec reports Enabled")
	}
	for _, c := range []uint64{0, 1, 99, 100, 1 << 40} {
		if !s.Detailed(c) {
			t.Errorf("Stride 0: cycle %d not detailed", c)
		}
	}
	for _, e := range []uint64{0, 1, 12345} {
		if got := s.DetailedCyclesThrough(e); got != e {
			t.Errorf("Stride 0: DetailedCyclesThrough(%d) = %d", e, got)
		}
	}
}

// DetailedCyclesThrough must equal a brute-force count of Detailed cycles
// at every phase boundary (and neighbors).
func TestDetailedCyclesThroughBoundaries(t *testing.T) {
	for _, s := range []SampleSpec{
		{Detail: 10, Stride: 40, Warmup: 25},
		{Detail: 10, Stride: 40}, // Warmup 0
		{Detail: 1, Stride: 1, Warmup: 1},
	} {
		period := s.Stride + s.Detail
		var probes []uint64
		for k := uint64(0); k < 3; k++ {
			base := s.Warmup + k*period
			for _, e := range []uint64{base, base + 1, base + s.Stride, base + s.Stride + 1, base + period} {
				probes = append(probes, e)
			}
		}
		probes = append(probes, 0, 1, s.Warmup)
		count := func(e uint64) uint64 {
			var n uint64
			for c := uint64(0); c < e; c++ {
				if s.Detailed(c) {
					n++
				}
			}
			return n
		}
		for _, e := range probes {
			if got, want := s.DetailedCyclesThrough(e), count(e); got != want {
				t.Errorf("spec %+v: DetailedCyclesThrough(%d) = %d, want %d", s, e, got, want)
			}
		}
	}
}

// FuzzParseSampleSpec feeds ParseSampleSpec arbitrary flag values. It must
// never panic; every spec it accepts must survive String and reparse, and
// on sampled specs PhaseAt must agree with Detailed and
// DetailedCyclesThrough must count exactly the detailed cycles, around the
// fuzzed cycle c and the schedule's first boundaries.
func FuzzParseSampleSpec(f *testing.F) {
	for _, s := range []string{"", "off", "default", "100/900", "100/900/50", "1/0/0", "0/900",
		"1/18446744073709551615", "18446744073709551615/1/7", "9223372036854775808/9223372036854775807/3"} {
		f.Add(s, uint64(12345))
	}
	f.Fuzz(func(t *testing.T, v string, c uint64) {
		s, err := ParseSampleSpec(v)
		if err != nil {
			return
		}
		back, err := ParseSampleSpec(s.String())
		if err != nil || back.String() != s.String() || s.Enabled() && back != s {
			t.Fatalf("%q parsed to %+v, whose String %q reparses to %+v (%v)", v, s, s.String(), back, err)
		}
		if !s.Enabled() {
			return
		}
		probes := []uint64{c, s.Warmup, s.Warmup + s.Stride, s.Warmup + s.Stride + s.Detail}
		for _, p := range probes {
			for _, x := range []uint64{p - 1, p, p + 1} {
				det, end := s.PhaseAt(x)
				if det != s.Detailed(x) {
					t.Fatalf("%+v: PhaseAt(%d) detailed=%v, Detailed=%v", s, x, det, s.Detailed(x))
				}
				if end > x && s.Detailed(end-1) != det {
					t.Fatalf("%+v: PhaseAt(%d) ends at %d, but cycle %d is in the other phase", s, x, end, end-1)
				}
				if x == math.MaxUint64 {
					continue
				}
				inc := s.DetailedCyclesThrough(x+1) - s.DetailedCyclesThrough(x)
				if want := b2u(s.Detailed(x)); inc != want {
					t.Fatalf("%+v: DetailedCyclesThrough steps by %d at cycle %d, want %d", s, int64(inc), x, want)
				}
			}
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
