// Hotspot reproduces the Section 4.3 insight interactively: protocol-
// processor occupancy hurts FLASH only when the hot node's MEMORY occupancy
// is simultaneously low. It runs the same FFT twice — once with partitioned
// data (every node serves its own band) and once with every page allocated
// from node 0 — and prints the per-node occupancy profile.
package main

import (
	"fmt"
	"log"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/workload"
)

func run(pl arch.Placement) *core.Machine {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 16
	cfg.CacheSize = 4 << 10 // small caches: lots of memory traffic
	cfg.MemBytesPerNode = 8 << 20
	cfg.Placement = pl

	m, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := workload.NewWorld(m)
	app, err := apps.Build("fft", w, apps.Params{Procs: 16, Scale: 16})
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
	for _, pl := range []arch.Placement{arch.PlaceFirstTouch, arch.PlaceNodeZero} {
		m := run(pl)
		fmt.Printf("FFT, 4 KB caches, %v placement (%d cycles):\n", pl, m.Elapsed)
		fmt.Println("  node   PP occupancy   memory occupancy")
		for i, n := range m.Nodes {
			pp := float64(n.Magic.PPBusy()) / float64(m.Elapsed)
			mem := n.Mem.Occupancy(m.Elapsed)
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
