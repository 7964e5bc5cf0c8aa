package exp

import (
	"fmt"
	"math"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
)

// SampledRow is one application's full-vs-sampled comparison.
type SampledRow struct {
	App string
	// FullElapsed is the detailed simulation's elapsed cycles — ground
	// truth. EstElapsed and EstCI are the sampled run's extrapolation and
	// its 95% confidence half-width.
	FullElapsed uint64
	EstElapsed  uint64
	EstCI       uint64
	// ErrPct is the signed estimation error in percent.
	ErrPct float64
	// FullSimSec and SampledSimSec are event-loop wall times (machine
	// construction, verification, and the coherence audit excluded — those
	// costs are identical in both legs and independent of the schedule).
	FullSimSec    float64
	SampledSimSec float64
	Speedup       float64
	// Covered reports whether the truth lies inside the confidence interval.
	Covered bool
}

// sampledLegRepeats is how many times each leg of the comparison runs: the
// reported wall is the minimum (the standard noise estimator for wall-clock
// benchmarking — host scheduling and GC spikes only ever add time), while
// the simulated outputs are asserted bit-identical across repeats.
const sampledLegRepeats = 3

// SampledCompare runs each application on the Section 3 FLASH machine fully
// detailed and under the sampled schedule — each leg sampledLegRepeats times,
// keeping the minimum event-loop wall — and returns the error/speedup table.
// The legs run sequentially so wall-clock comparisons are not polluted by
// host contention.
func SampledCompare(o Options, appNames []string, spec arch.SampleSpec) ([]SampledRow, error) {
	if !spec.Enabled() {
		return nil, fmt.Errorf("exp: sampled comparison needs an enabled SampleSpec")
	}
	procs := 16
	if o.Procs > 0 {
		procs = o.Procs
	}
	rows := make([]SampledRow, 0, len(appNames))
	for _, name := range appNames {
		cfg := o.baseConfig(procs)
		cfg.Kind = arch.KindFLASH
		p := o.paramsFor(procs)

		full, err := minWallRun(name, cfg, p, o.Verify)
		if err != nil {
			return nil, fmt.Errorf("full: %w", err)
		}
		cfg.Sample = spec
		sampled, err := minWallRun(name, cfg, p, o.Verify)
		if err != nil {
			return nil, fmt.Errorf("sampled: %w", err)
		}
		s := sampled.Report.Sampled
		if s == nil {
			return nil, fmt.Errorf("exp: %s: sampled run produced no extrapolation section", name)
		}

		row := SampledRow{
			App:           name,
			FullElapsed:   uint64(full.Report.Elapsed),
			EstElapsed:    s.ElapsedEst,
			EstCI:         s.ElapsedCI,
			FullSimSec:    full.SimWall.Seconds(),
			SampledSimSec: sampled.SimWall.Seconds(),
		}
		row.ErrPct = 100 * (float64(row.EstElapsed) - float64(row.FullElapsed)) / float64(row.FullElapsed)
		if row.SampledSimSec > 0 {
			row.Speedup = row.FullSimSec / row.SampledSimSec
		}
		diff := math.Abs(float64(row.EstElapsed) - float64(row.FullElapsed))
		row.Covered = diff <= float64(row.EstCI)
		rows = append(rows, row)
	}
	return rows, nil
}

// sampled renders the full-vs-sampled comparison for the Figure 4.1
// applications: estimation error with 95% confidence intervals alongside the
// event-loop wall-clock speedup. The spec comes from o.Sample (default
// schedule when unset).
func sampled(o Options) (string, error) {
	spec := o.Sample
	if !spec.Enabled() {
		spec = arch.DefaultSampleSpec()
	}
	appList := Fig41Apps()
	if len(o.SampleApps) > 0 {
		appList = o.SampleApps
	}
	rows, err := SampledCompare(o, appList, spec)
	if err != nil {
		return "", err
	}
	header := []string{"app", "full(cyc)", "est(cyc)", "±95%", "err", "covered", "full(s)", "sampled(s)", "speedup"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.App,
			fmt.Sprintf("%d", r.FullElapsed),
			fmt.Sprintf("%d", r.EstElapsed),
			fmt.Sprintf("%d", r.EstCI),
			fmt.Sprintf("%+.1f%%", r.ErrPct),
			fmt.Sprintf("%v", r.Covered),
			fmt.Sprintf("%.3f", r.FullSimSec),
			fmt.Sprintf("%.3f", r.SampledSimSec),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	out := fmt.Sprintf("Sampled fast-forward vs full simulation (%s, %d procs, scale 1/%d)\n",
		spec, pickProcs(o), o.Scale) + table(header, body) +
		"\nerr compares the sampled run's extrapolated Elapsed against the full\n" +
		"run's; wall times cover the event loop only. Work-dominated applications\n" +
		"(mp3d, radix) extrapolate well; barrier-heavy codes under-estimate\n" +
		"because fast-forwarded synchronization time is repriced at the detailed\n" +
		"windows' work rate (see DESIGN.md §14).\n"
	return out, nil
}

// minWallRun runs the app sampledLegRepeats times and returns the run with
// the smallest event-loop wall, after checking that simulated behavior was
// bit-identical across the repeats (cycles, events, and the extrapolation
// are all deterministic; only host wall time may vary).
func minWallRun(name string, cfg arch.Config, p apps.Params, verify bool) (*Run, error) {
	var best *Run
	for i := 0; i < sampledLegRepeats; i++ {
		r, err := RunApp(name, cfg, p, verify)
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = r
			continue
		}
		if r.Report.Elapsed != best.Report.Elapsed || r.Report.Events != best.Report.Events {
			return nil, fmt.Errorf("exp: %s: repeat run diverged (elapsed %d/%d, events %d/%d)",
				name, best.Report.Elapsed, r.Report.Elapsed, best.Report.Events, r.Report.Events)
		}
		if r.SimWall < best.SimWall {
			best = r
		}
	}
	return best, nil
}

// Fig41Apps is the Figure 4.1 suite in the paper's presentation order.
func Fig41Apps() []string {
	return []string{"fft", "lu", "radix", "ocean", "barnes", "mp3d", "os"}
}

func pickProcs(o Options) int {
	if o.Procs > 0 {
		return o.Procs
	}
	return 16
}
