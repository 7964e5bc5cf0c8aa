// Ppmonitor demonstrates the flexibility dividend the paper's conclusion
// emphasizes: because every transaction runs protocol code on MAGIC, the
// machine can observe itself. It runs one workload and prints the
// handler-level profile a hardwired controller could never produce — which
// handlers ran, how often, and at what occupancy — plus the PP's dynamic
// instruction statistics and an ablation of the PP's ISA extensions.
package main

import (
	"fmt"
	"log"
	"sort"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/sim"
	"flashsim/internal/workload"
)

func run(mode arch.PPMode) *core.Machine {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 8
	cfg.MemBytesPerNode = 4 << 20
	cfg.PPMode = mode

	m, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build("radix", w, apps.Params{Procs: 8, Scale: 16})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Run(app.Run, 0); err != nil {
		log.Fatal(err)
	}
	if err := app.Verify(); err != nil {
		log.Fatal(err)
	}
	return m
}

func main() {
	m := run(arch.PPDualIssue)

	// Handler profile across all nodes.
	type prof struct {
		count  uint64
		cycles sim.Cycle
	}
	agg := map[string]*prof{}
	var pairs, instrs uint64
	for _, n := range m.Nodes {
		for h, st := range n.Magic.Handlers() {
			p := agg[h]
			if p == nil {
				p = &prof{}
				agg[h] = p
			}
			p.cycles += st.Cycles
			p.count += st.Count
		}
		pairs += n.Magic.PP.Stats.Pairs
		instrs += n.Magic.PP.Stats.Instrs
	}
	names := make([]string, 0, len(agg))
	for h := range agg {
		names = append(names, h)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].cycles > agg[names[j]].cycles })

	fmt.Printf("radix sort on 8 nodes: %d cycles\n\n", m.Elapsed)
	fmt.Println("protocol handler profile (all nodes):")
	fmt.Printf("  %-16s %10s %12s %8s\n", "handler", "runs", "PP cycles", "mean")
	for _, h := range names {
		p := agg[h]
		fmt.Printf("  %-16s %10d %12d %8.1f\n", h, p.count, p.cycles, float64(p.cycles)/float64(p.count))
	}
	fmt.Printf("\ndynamic dual-issue efficiency: %.2f instructions/pair\n", float64(instrs)/float64(pairs))

	// Ablation: the same machine with the PP's ISA extensions turned off
	// (single-issue, DLX substitution sequences) — Section 5.3.
	slow := run(arch.PPNoSpecial)
	fmt.Printf("\nwith PP extensions disabled (single-issue + DLX substitution):\n")
	fmt.Printf("  %d cycles -> %d cycles (+%.0f%%)\n", m.Elapsed, slow.Elapsed,
		100*(float64(slow.Elapsed)/float64(m.Elapsed)-1))
}
