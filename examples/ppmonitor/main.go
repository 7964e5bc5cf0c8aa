// Ppmonitor demonstrates the flexibility dividend the paper's conclusion
// emphasizes: because every transaction runs protocol code on MAGIC, the
// machine can observe itself. It runs one workload and prints the
// handler-level profile a hardwired controller could never produce — which
// handlers ran, how often, and at what occupancy — plus the PP's dynamic
// instruction statistics and an ablation of the PP's ISA extensions, all
// from the run's report.
package main

import (
	"fmt"
	"log"
	"sort"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/exp"
	"flashsim/internal/stats"
)

func run(mode arch.PPMode) stats.Report {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 8
	cfg.MemBytesPerNode = 4 << 20
	cfg.PPMode = mode

	r, err := exp.RunApp("radix", cfg, apps.Params{Procs: 8, Scale: 16}, true)
	if err != nil {
		log.Fatal(err)
	}
	return r.Report
}

func main() {
	r := run(arch.PPDualIssue)

	// Handler profile across all nodes.
	lat := r.HandlerLatency
	names := make([]string, 0, len(lat))
	for h := range lat {
		names = append(names, h)
	}
	sort.Slice(names, func(i, j int) bool { return lat[names[i]].Sum > lat[names[j]].Sum })

	fmt.Printf("radix sort on 8 nodes: %d cycles\n\n", r.Elapsed)
	fmt.Println("protocol handler profile (all nodes):")
	fmt.Printf("  %-16s %10s %12s %8s\n", "handler", "runs", "PP cycles", "mean")
	for _, h := range names {
		p := lat[h]
		fmt.Printf("  %-16s %10d %12d %8.1f\n", h, p.Count, p.Sum, p.Mean())
	}
	fmt.Printf("\ndynamic dual-issue efficiency: %.2f instructions/pair\n", r.DualIssueEff)

	// Ablation: the same machine with the PP's ISA extensions turned off
	// (single-issue, DLX substitution sequences) — Section 5.3.
	slow := run(arch.PPNoSpecial)
	fmt.Printf("\nwith PP extensions disabled (single-issue + DLX substitution):\n")
	fmt.Printf("  %d cycles -> %d cycles (+%.0f%%)\n", r.Elapsed, slow.Elapsed,
		100*(float64(slow.Elapsed)/float64(r.Elapsed)-1))
}
