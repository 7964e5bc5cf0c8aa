package arch

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SampleSpec configures SMARTS-style sampled execution: the machine
// alternates between functional fast-forward phases — references and MAGIC
// handlers applied architecturally (caches, directory state, memory values,
// and queues stay warm) with fixed uncontended charge latencies — and
// detailed measurement windows where the full PP + memory + bus machinery
// runs as usual. Phases are a pure function of the simulated cycle, so the
// schedule is identical on every engine backend and worker count:
//
//	[0, Warmup)                        detailed (warm-up, not measured)
//	then repeating:  Stride cycles     fast-forward
//	                 Detail cycles     detailed (measured)
//
// The zero value (Stride == 0) disables sampling entirely: every cycle is
// detailed and simulated behavior is bit-identical to a machine with no
// SampleSpec at all. Enabling sampling is an INTENTIONAL TIMING-MODEL
// CHANGE: elapsed time must be read from the extrapolated estimate
// (stats.Report.Sampled), not from the raw cycle counter.
type SampleSpec struct {
	// Detail is the detailed measurement-window length in cycles.
	Detail uint64
	// Stride is the fast-forward phase length in cycles; 0 disables
	// sampling (detailed fraction 1.0).
	Stride uint64
	// Warmup is a detailed prefix before the first fast-forward phase,
	// excluded from measurement: it lets caches, directories, and queues
	// reach steady state under detailed timing before extrapolation starts.
	Warmup uint64
}

// DefaultSampleSpec is the schedule used when sampling is requested without
// an explicit spec ("-sample default", the sampled experiment, bench.sh):
// one eighth detailed with windows long enough to cover several miss round
// trips, and a detailed warm-up prefix.
func DefaultSampleSpec() SampleSpec {
	return SampleSpec{Detail: 2000, Stride: 14000, Warmup: 8000}
}

// Enabled reports whether sampling is active (a zero Stride means every
// cycle is detailed).
func (s SampleSpec) Enabled() bool { return s.Stride > 0 }

// Detailed reports whether cycle c falls in a detailed phase.
func (s SampleSpec) Detailed(c uint64) bool {
	if s.Stride == 0 {
		return true
	}
	if c < s.Warmup {
		return true
	}
	return (c-s.Warmup)%(s.Stride+s.Detail) >= s.Stride
}

// PhaseAt returns the phase containing cycle c and the first cycle past it
// (exclusive): callers on per-reference hot paths cache the pair and only
// recompute when the clock crosses `end`, replacing a modulo per reference
// with a compare. Agrees with Detailed for every cycle. Only meaningful
// when sampling is enabled.
func (s SampleSpec) PhaseAt(c uint64) (detailed bool, end uint64) {
	if c < s.Warmup {
		return true, s.Warmup
	}
	p := (c - s.Warmup) % (s.Stride + s.Detail)
	if p < s.Stride {
		return false, c - p + s.Stride
	}
	return true, c - p + s.Stride + s.Detail
}

// Window returns the index of the measurement window containing detailed
// cycle c, counting from 0 after the warm-up prefix. Only meaningful when
// Detailed(c) is true and c >= Warmup.
func (s SampleSpec) Window(c uint64) int {
	return int((c - s.Warmup) / (s.Stride + s.Detail))
}

// WindowEnd returns the last cycle (exclusive) of measurement window w.
func (s SampleSpec) WindowEnd(w int) uint64 {
	return s.Warmup + (uint64(w)+1)*(s.Stride+s.Detail)
}

// DetailedCyclesThrough returns how many cycles in [0, e) are detailed
// under the schedule, in closed form.
func (s SampleSpec) DetailedCyclesThrough(e uint64) uint64 {
	if s.Stride == 0 || e <= s.Warmup {
		return e
	}
	d := s.Warmup
	rest := e - s.Warmup
	period := s.Stride + s.Detail
	d += (rest / period) * s.Detail
	if p := rest % period; p > s.Stride {
		d += p - s.Stride
	}
	return d
}

// Validate reports spec errors.
func (s SampleSpec) Validate() error {
	if s.Stride > 0 && s.Detail == 0 {
		return fmt.Errorf("arch: SampleSpec with Stride %d needs a positive Detail window (pure fast-forward has no measurement windows to extrapolate from)", s.Stride)
	}
	if s.Stride > 0 && s.Detail > math.MaxUint64-s.Stride {
		return fmt.Errorf("arch: SampleSpec period Detail %d + Stride %d overflows uint64", s.Detail, s.Stride)
	}
	return nil
}

// String renders the spec in the detail/stride/warmup form ParseSampleSpec
// accepts.
func (s SampleSpec) String() string {
	if !s.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%d/%d/%d", s.Detail, s.Stride, s.Warmup)
}

// ParseSampleSpec parses a -sample flag value: "off" or "" (disabled),
// "default" (the DefaultSampleSpec schedule), or "detail/stride[/warmup]"
// in cycles.
func ParseSampleSpec(v string) (SampleSpec, error) {
	switch v {
	case "", "off":
		return SampleSpec{}, nil
	case "default":
		return DefaultSampleSpec(), nil
	}
	parts := strings.Split(v, "/")
	if len(parts) != 2 && len(parts) != 3 {
		return SampleSpec{}, fmt.Errorf("arch: sample spec %q: want detail/stride[/warmup], \"default\", or \"off\"", v)
	}
	var s SampleSpec
	for i, dst := range []*uint64{&s.Detail, &s.Stride, &s.Warmup} {
		if i >= len(parts) {
			break
		}
		n, err := strconv.ParseUint(parts[i], 10, 64)
		if err != nil {
			return SampleSpec{}, fmt.Errorf("arch: sample spec %q: %v", v, err)
		}
		*dst = n
	}
	if err := s.Validate(); err != nil {
		return SampleSpec{}, err
	}
	return s, nil
}
