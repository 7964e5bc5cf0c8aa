// Hotspot reproduces the Section 4.3 insight interactively: protocol-
// processor occupancy hurts FLASH only when the hot node's MEMORY occupancy
// is simultaneously low. It runs the same FFT twice — once with partitioned
// data (every node serves its own band) and once with every page allocated
// from node 0 — and prints the per-node occupancy profile from each run's
// report.
package main

import (
	"fmt"
	"log"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/exp"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

func run(pl arch.Placement) stats.Report {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 16
	cfg.CacheSize = 4 << 10 // small caches: lots of memory traffic
	cfg.MemBytesPerNode = 8 << 20
	cfg.Placement = pl

	r, err := exp.RunApp("fft", cfg, apps.Params{Procs: 16, Scale: 16}, true)
	if err != nil {
		log.Fatal(err)
	}
	return r.Report
}

func main() {
	for _, pl := range []arch.Placement{arch.PlaceFirstTouch, arch.PlaceNodeZero} {
		r := run(pl)
		fmt.Printf("FFT, 4 KB caches, %v placement (%d cycles):\n", pl, r.Elapsed)
		fmt.Println("  node   PP occupancy   memory occupancy")
		for i, n := range r.PerNode {
			pp := sim.Occupancy(n.PPBusy, r.Elapsed)
			mem := sim.Occupancy(n.MemBusy, r.Elapsed)
			marker := ""
			if pp > 0.5 {
				marker = "  <- hot"
			}
			fmt.Printf("  %4d   %6.1f%%        %6.1f%%%s\n", i, 100*pp, 100*mem, marker)
		}
		fmt.Println()
	}
	fmt.Println("The paper's point: the node-0 hot spot drives PP occupancy up, but")
	fmt.Println("because node 0's memory is equally busy, the protocol processing")
	fmt.Println("hides behind the DRAM access and the flexible machine loses little.")
}
