package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// verdict judges B against A for one metric of one workload. The bound is
// the share of A's median B may be worse by. When either side's spread
// (quartile distance over median) exceeds the bound and the two sets of
// repetitions interleave, the runs cannot resolve a change of that size.
func verdict(d metricDef, a, b dist) string {
	if a.Median == 0 {
		if b.Median == 0 {
			return "same"
		}
		if (b.Median > 0) == (d.Better == "lower") {
			return "worse"
		}
		return "better"
	}
	spread := func(x dist) float64 {
		if x.Median == 0 {
			return 0
		}
		return (x.Q3 - x.Q1) / x.Median
	}
	interleave := a.Min <= b.Max && b.Min <= a.Max
	if (spread(a) > d.Bound || spread(b) > d.Bound) && interleave && a.N > 1 && b.N > 1 {
		return "unresolved"
	}
	delta := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > d.Bound:
		return "worse"
	case delta < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// their quartiles, the change, and the verdict; then every exact per-layer
// count that differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b results
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-18s %-16s %12s %-25s %12s %-25s %8s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "verdict")
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		for _, d := range append(append([]metricDef(nil), gated...), derived...) {
			da, okA := ra.E2E[d.Name]
			db, okB := rb.E2E[d.Name]
			if !okA || !okB {
				continue
			}
			change := "n/a"
			if da.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(db.Median-da.Median)/da.Median)
			}
			note := ""
			if ra.Host.Noisy || rb.Host.Noisy {
				note = " (noisy host)"
			}
			fmt.Fprintf(w, "%-18s %-16s %12.6g %-25s %12.6g %-25s %8s  %s%s\n", n, d.Name,
				da.Median, fmt.Sprintf("[%.6g, %.6g]", da.Q1, da.Q3),
				db.Median, fmt.Sprintf("[%.6g, %.6g]", db.Q1, db.Q3), change, verdict(d, da, db), note)
		}
		differ := 0
		for _, d := range layers {
			if strings.HasPrefix(d.Name, "host.") || (d.Unit != "count" && d.Unit != "cycles") {
				continue // host counts are measurements, not simulated
			}
			if va, vb := ra.Layers[d.Name].Value, rb.Layers[d.Name].Value; va != vb {
				fmt.Fprintf(w, "%-18s %-16s %12.0f %-25s %12.0f  exact count differs\n", n, d.Name, va, "", vb)
				differ++
			}
		}
		if differ == 0 && len(ra.Layers) > 0 && len(rb.Layers) > 0 {
			fmt.Fprintf(w, "%-18s every simulated count and cycle total agrees exactly\n", n)
		}
	}
	return nil
}
