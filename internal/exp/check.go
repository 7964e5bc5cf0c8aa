package exp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// checkSkips are the row-owning experiments check does not run, and why.
var checkSkips = map[string]string{"sec4.5": "not run: its 64-processor Ocean leg livelocks"}

// check scores a run against the paper. It declares the runs of every
// experiment that owns paper rows, so they are shared with any other
// experiment of the plan, renders each with a recorder instead of printing
// it, and prints one markdown row per paper row. A failed run fails only the
// rows measured from it, and check goes on.
func check(pl *planner) render {
	type part struct {
		name string
		r    render
		jobs []*job
	}
	var parts []part
	for i, r := range paperRows {
		if checkSkips[r.exp] == "" && (i == 0 || paperRows[i-1].exp != r.exp) {
			e, _ := pl.lookup(r.exp) // every row names an experiment (TestPaperRows)
			n := len(pl.decl)
			parts = append(parts, part{r.exp, e.declare(pl), pl.decl[n:]})
		}
	}
	return func(scores) (string, error) {
		s := scores{}
		failed := map[string]error{} // per experiment: its first failed run, else its renderer's error
		for _, p := range parts {
			failed[p.name] = s.render(p.r)
			if i := slices.IndexFunc(p.jobs, func(j *job) bool { return j.err != nil }); i >= 0 {
				failed[p.name] = p.jobs[i].err
			}
		}
		var rows, whys []string
		count := map[string]int{}
		for i := range paperRows {
			r := &paperRows[i]
			measured, delta, result, note := r.score(pl.o, s[r], failed[r.exp])
			if !slices.Contains(whys, r.why) {
				whys = append(whys, r.why)
			}
			count[result]++
			rows = append(rows, fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | ±%s%s [%d] | %s | %s |", r.source, r.exp, r.row, r.metric,
				measured, r, delta, num(r.tol), r.unit, 1+slices.Index(whys, r.why), result, strings.ReplaceAll(note, "|", `\|`)))
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Paper scorecard at -scale %d: %d PASS, %d FAIL, %d N/A\n", pl.o.Scale, count["PASS"], count["FAIL"], count["N/A"])
		b.WriteString("(delta: distance outside the paper's value or range; tolerances are absolute, in the row's unit)\n\n" +
			"| Source | Experiment | Row | Metric | Measured | Paper | Delta | Tolerance | Result | Note |\n" +
			"|---|---|---|---|---|---|---|---|---|---|\n" + strings.Join(rows, "\n") + "\n\nTolerances:\n")
		for i, w := range whys {
			fmt.Fprintf(&b, "- [%d] %s\n", i+1, w)
		}
		return b.String(), nil
	}
}

// render runs r for its records alone; a panic (r reading a failed run's
// empty report) is its error.
func (s scores) render(r render) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	_, err = r(s)
	return err
}

// score scores r on its measures ms under options o: PASS, FAIL or N/A,
// with the measured values, the worst one's distance outside the paper's
// value or range, and a note. failed is r's experiment's failure, which
// fails r if its renderer recorded nothing for it.
func (r *paperRow) score(o Options, ms []measure, failed error) (measured, delta, result, note string) {
	if ms != nil {
		failed = nil
	}
	worst, procs := 0.0, 0
	for _, m := range ms {
		if d := m.v - min(max(m.v, r.lo), r.hi); math.IsNaN(d) || math.Abs(d) > math.Abs(worst) {
			worst = d
		}
		failed, procs = cmp.Or(failed, m.err), m.procs
		measured += fmt.Sprintf("/%.4g%s", m.v, r.unit)
	}
	switch note = checkSkips[r.exp]; {
	case note != "":
		return "", "", "N/A", note
	case failed != nil:
		return "", "", "FAIL", strings.SplitN(failed.Error(), "\n", 2)[0]
	case ms == nil:
		return "", "", "N/A", "no measurement"
	}
	measured, delta, result = measured[1:], fmt.Sprintf("%+.4g%s", worst, r.unit), "FAIL"
	switch {
	case r.scale != 0 && o.Scale != r.scale:
		result, note = "N/A", fmt.Sprintf("row is for -scale %d", r.scale)
	case r.procs != 0 && procs != r.procs:
		result, note = "N/A", fmt.Sprintf("ran on %d processors, row is for %d", procs, r.procs)
	case math.Abs(worst) <= r.tol+1e-9:
		result = "PASS"
	}
	return measured, delta, result, note
}
