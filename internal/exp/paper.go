package exp

// What the paper published, and how close a run must come to it: every
// number of the paper's evaluation that an experiment reproduces is one
// paperRow, and nothing else in the package writes a paper number down.
// A renderer that prints a published value gets it from scores.paper,
// which records the value the renderer measured next to it; a renderer that
// only measures a row calls record. The check experiment (check.go) renders
// every row-owning experiment with a recorder and scores each row.

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// paperRow is one published number.
type paperRow struct {
	exp, row, metric string  // the experiment that measures it, and its row and metric there
	lo, hi           float64 // the paper's value, or its range
	unit             string  // printed after a value: "%", " KB", or "" (cycles, counts, ratios)
	scale, procs     int     // the -scale and processor count it applies to (0: any)
	source           string  // table, figure or section
	tol              float64 // how far outside [lo, hi] a measurement may fall, in unit
	why              string  // the tolerance's argument
}

// The tolerances' arguments, each written from the paper's precision and
// the part of the model that can move the number.
const (
	whyIdealLat  = "the ideal machine adds Table 3.2's suboperations with no handler: 4 cycles is one overlap rule read differently"
	whyFlashPath = "our handler code, not the paper's, is on this path: 25 cycles is about one extra short handler"
	whyHandler   = "one handler of our PP assembly against the paper's compiled C: 5 cycles is about five instruction pairs"
	whyGap       = "a gap the paper gives in whole percent: 3 points is a quarter of its 2-12 % range"
	whyOcc       = "an occupancy moves with our handlers' lengths: 5 points"
	whyShare     = "a miss-class or speculation share follows the ported workload's data layout: 10 points"
	whyMissRate  = "a miss rate the paper prints to its last digit: within that digit's half-unit either way"
	whyMDC       = "an MDC rate follows our directory layout's footprint: 5 points"
	whySpecCost  = "the paper's speculation never loses: 1 point for a different memory schedule"
	whySuite     = "a PP statistic whose range already spans the paper's suite: about a tenth of its upper end beyond it"
	whyStatic    = "a static instruction count of the substitution: exact"
	whyAblation  = "an ablation compounds every handler's length over a whole run: 10 points"
)

// paperRows is every published number an experiment measures, in the
// order check prints them. Table 3.4's "fwd 3/18" is read as forward to
// home and forward to the dirty owner.
var paperRows = []paperRow{
	{"table3.3", "Local read miss, clean in local memory", "ideal", 24, 24, "", 0, 0, "Table 3.3", 4, whyIdealLat},
	{"table3.3", "Local read miss, dirty in remote cache", "ideal", 100, 100, "", 0, 0, "Table 3.3", 4, whyIdealLat},
	{"table3.3", "Remote read miss, clean in home memory", "ideal", 92, 92, "", 0, 0, "Table 3.3", 4, whyIdealLat},
	{"table3.3", "Remote read miss, dirty in home cache", "ideal", 100, 100, "", 0, 0, "Table 3.3", 4, whyIdealLat},
	{"table3.3", "Remote read miss, dirty in 3rd node", "ideal", 136, 136, "", 0, 0, "Table 3.3", 4, whyIdealLat},
	{"table3.3", "Local read miss, clean in local memory", "FLASH", 27, 27, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Local read miss, dirty in remote cache", "FLASH", 143, 143, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, clean in home memory", "FLASH", 111, 111, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, dirty in home cache", "FLASH", 145, 145, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, dirty in 3rd node", "FLASH", 191, 191, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Local read miss, clean in local memory", "PP occ", 11, 11, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Local read miss, dirty in remote cache", "PP occ", 53, 53, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, clean in home memory", "PP occ", 16, 16, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, dirty in home cache", "PP occ", 53, 53, "", 0, 0, "Table 3.3", 25, whyFlashPath},
	{"table3.3", "Remote read miss, dirty in 3rd node", "PP occ", 61, 61, "", 0, 0, "Table 3.3", 25, whyFlashPath},

	{"table3.4", "read miss", "PP occupancy", 11, 11, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "write miss", "PP occupancy", 14, 14, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "write miss, per invalidation", "PP occupancy", 10, 15, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "forward to home", "PP occupancy", 3, 3, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "forward to owner", "PP occupancy", 18, 18, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "cache retrieve", "PP occupancy", 38, 38, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "reply", "PP occupancy", 2, 2, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "local writeback", "PP occupancy", 10, 10, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "remote writeback", "PP occupancy", 8, 8, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "local replacement hint", "PP occupancy", 7, 7, "", 0, 0, "Table 3.4", 5, whyHandler},
	{"table3.4", "remote replacement hint", "PP occupancy", 17, 17, "", 0, 0, "Table 3.4", 5, whyHandler},

	{"fig4.1", "barnes", "FLASH vs ideal", 5, 5, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "fft", "FLASH vs ideal", 10, 10, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "lu", "FLASH vs ideal", 2, 2, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "mp3d", "FLASH vs ideal", 25, 25, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "ocean", "FLASH vs ideal", 6, 6, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "os", "FLASH vs ideal", 10, 10, "%", 1, 8, "Figure 4.1", 3, whyGap},
	{"fig4.1", "radix", "FLASH vs ideal", 12, 12, "%", 1, 16, "Figure 4.1", 3, whyGap},
	{"fig4.1", "barnes", "Miss rate", 0.06, 0.06, "%", 1, 16, "Table 4.1", 0.005, whyMissRate},
	{"fig4.1", "barnes", "Remote (all classes)", 91.3, 91.3, "%", 1, 16, "Table 4.1", 10, whyShare},
	{"fig4.1", "fft", "Remote Dirty at Home", 62.1, 62.1, "%", 1, 16, "Table 4.1", 10, whyShare},
	{"fig4.1", "mp3d", "Remote Dirty Remote", 84, 84, "%", 1, 16, "Table 4.1", 10, whyShare},
	{"fig4.1", "os", "Remote Clean", 58.6, 58.6, "%", 1, 8, "Table 4.1", 10, whyShare},
	{"fig4.1", "radix", "Local Dirty Remote", 76, 76, "%", 1, 16, "Table 4.1", 10, whyShare},

	{"sec4.3", "FFT, all memory on node 0", "node-0 PP occupancy", 81.6, 81.6, "%", 1, 16, "Section 4.3", 5, whyOcc},
	{"sec4.3", "FFT, all memory on node 0", "node-0 mem occupancy", 67.7, 67.7, "%", 1, 16, "Section 4.3", 5, whyOcc},
	{"sec4.3", "FFT, all memory on node 0", "FLASH vs ideal", 2.6, 2.6, "%", 1, 16, "Section 4.3", 3, whyGap},
	{"sec4.3", "OS, node-zero pages", "max PP occupancy", 81, 81, "%", 1, 8, "Section 4.3", 5, whyOcc},
	{"sec4.3", "OS, node-zero pages", "max mem occupancy", 33, 33, "%", 1, 8, "Section 4.3", 5, whyOcc},
	{"sec4.3", "OS, node-zero pages", "FLASH vs ideal", 29, 29, "%", 1, 8, "Section 4.3", 3, whyGap},

	{"sec4.5", "fft", "FLASH vs ideal", 17, 17, "%", 1, 64, "Section 4.5", 3, whyGap},
	{"sec4.5", "lu", "FLASH vs ideal", 0.7, 0.7, "%", 1, 64, "Section 4.5", 3, whyGap},
	{"sec4.5", "ocean", "FLASH vs ideal", 12, 12, "%", 1, 64, "Section 4.5", 3, whyGap},

	{"table5.1", "every app", "Useless spec reads", 20, 68, "%", 1, 0, "Table 5.1", 10, whyShare},
	{"table5.1", "every app", "Exec time w/o speculation", 0.2, 12.7, "%", 1, 0, "Table 5.1", 1, whySpecCost},

	{"sec5.2", "uniprocessor radix", "processor cache miss rate", 1.4, 1.4, "%", 1, 1, "Section 5.2", 0.05, whyMissRate},
	{"sec5.2", "uniprocessor radix", "MDC miss rate", 14.9, 14.9, "%", 1, 1, "Section 5.2", 5, whyMDC},
	{"sec5.2", "uniprocessor radix", "MDC read miss rate", 30, 30, "%", 1, 1, "Section 5.2", 5, whyMDC},
	{"sec5.2", "uniprocessor radix", "slowdown vs no-MDC-miss machine", 14, 14, "%", 1, 1, "Section 5.2", 3, whyGap},
	{"sec5.2", "OS", "MDC miss rate", 4.1, 4.1, "%", 1, 8, "Section 5.2", 5, whyMDC},
	{"sec5.2", "OS", "MDC read miss rate", 8.7, 8.7, "%", 1, 8, "Section 5.2", 5, whyMDC},
	{"sec5.2", "OS", "MDC fills / memory operations", 34, 34, "%", 1, 8, "Section 5.2", 5, whyMDC},

	{"table5.2", "protocol", "static code size (with NOPs)", 14.8, 14.8, " KB", 0, 0, "Table 5.2", 1.5, whySuite},
	{"table5.2", "suite", "dynamic dual-issue efficiency", 1.43, 1.54, "", 1, 16, "Table 5.2", 0.15, whySuite},
	{"table5.2", "suite", "special instruction use", 37, 43, "%", 1, 16, "Table 5.2", 4, whySuite},
	{"table5.2", "suite", "instruction pairs per handler", 10.8, 13.5, "", 1, 16, "Table 5.2", 1.4, whySuite},
	{"table5.2", "suite", "handler invocations per cache miss", 3.51, 3.87, "", 1, 16, "Table 5.2", 0.4, whySuite},

	{"table5.3", "find first set bit", "DLX instrs", 6, 27, "", 0, 0, "Table 5.3", 0, whyStatic},
	{"table5.3", "branch on bit", "DLX instrs", 2, 4, "", 0, 0, "Table 5.3", 0, whyStatic},
	{"table5.3", "ALU field immediate", "DLX instrs", 1, 5, "", 0, 0, "Table 5.3", 0, whyStatic},

	{"sec5.3", "suite", "average increase", 40, 40, "%", 1, 16, "Section 5.3", 10, whyAblation},
	{"sec5.3", "suite", "maximum increase", 137, 137, "%", 1, 16, "Section 5.3", 10, whyAblation},
}

// String is the paper's value as the renderers print it: "24", "14.8 KB",
// "37-43%".
func (r *paperRow) String() string {
	if r.lo == r.hi {
		return num(r.lo) + r.unit
	}
	return num(r.lo) + "-" + num(r.hi) + r.unit
}

// num prints v to at most three decimals.
func num(v float64) string {
	return strconv.FormatFloat(math.Round(v*1000)/1000, 'f', -1, 64)
}

// findRow returns the row (exp, row, metric), or nil.
func findRow(exp, row, metric string) *paperRow {
	for i := range paperRows {
		if r := &paperRows[i]; r.exp == exp && r.row == row && r.metric == metric {
			return r
		}
	}
	return nil
}

// published returns the row (exp, row, metric) for a renderer that prints
// a value it does not measure.
func published(exp, row, metric string) *paperRow {
	r := findRow(exp, row, metric)
	if r == nil {
		panic(fmt.Sprintf("exp: no paper row %s / %s / %s", exp, row, metric))
	}
	return r
}

// measure is one value a renderer measured for a row: from runs on procs
// processors (0: no run), or the failure of one of them.
type measure struct {
	v     float64
	procs int
	err   error
}

// scores collects the measures renderers record, per row. A nil scores
// records nothing: the plain rendering of an experiment.
type scores map[*paperRow][]measure

// paper returns the row (exp, row, metric), whose value the renderer
// prints, and records measured for it, computed from the runs from.
func (s scores) paper(exp, row, metric string, measured float64, from ...*job) *paperRow {
	r := published(exp, row, metric)
	s.add(r, measured, from)
	return r
}

// record records measured for the row (exp, row, metric), if there is one:
// the renderer prints every cell of a table and the paper published a few.
func (s scores) record(exp, row, metric string, measured float64, from ...*job) {
	if r := findRow(exp, row, metric); r != nil {
		s.add(r, measured, from)
	}
}

// add records v for r, measured from the runs from.
func (s scores) add(r *paperRow, v float64, from []*job) {
	if s == nil {
		return
	}
	m := measure{v: v}
	for _, j := range from {
		m.procs, m.err = j.p.Procs, cmp.Or(m.err, j.err)
	}
	s[r] = append(s[r], m)
}
