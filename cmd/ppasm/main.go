// Ppasm assembles, schedules and inspects PP protocol code: it prints the
// scheduled dual-issue image of the built-in coherence protocol (or a user
// handler file), its static statistics, and the DLX-substitution expansion
// (Table 5.3's raw material).
//
// Usage:
//
//	ppasm [-protocol dynptr|bitvec] [-mode dual|single|dlx] [-stats] [file.s]
//
// Without a file the built-in cache-coherence protocol is used.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ppasm: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; every failure returns through it.
func run() error {
	mode := flag.String("mode", "dual", "schedule mode: dual, single, dlx")
	statsOnly := flag.Bool("stats", false, "print statistics only, not the listing")
	proto := flag.String("protocol", "dynptr", "built-in protocol: dynptr, bitvec")
	flag.Parse()

	cfg := arch.DefaultConfig()
	var bad [2]error
	cfg.Protocol, bad[0] = arch.ParseProtocol(*proto)
	cfg.PPMode, bad[1] = arch.ParsePPMode(*mode)
	if err := errors.Join(bad[:]...); err != nil {
		return err
	}
	layout := protocol.NewLayout(&cfg)

	var src *ppisa.Source
	if flag.NArg() > 0 {
		text, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		if src, err = ppisa.Assemble(string(text), layout.Symbols()); err != nil {
			return err
		}
	} else {
		prog, err := protocol.Build(&cfg)
		if err != nil {
			return err
		}
		src = prog.Source
	}
	prog := protocol.Schedule(src, cfg.PPMode)

	fmt.Printf("source instructions: %d\n", prog.SrcInstrs)
	fmt.Printf("scheduled:           %d pairs, %d non-NOP slots\n", len(prog.Pairs), prog.StaticNonNops())
	fmt.Printf("static code size:    %d bytes (%.1f KB)\n", prog.CodeBytes(), float64(prog.CodeBytes())/1024)
	fmt.Printf("static fill:         %.2f instructions/pair\n",
		float64(prog.StaticNonNops())/float64(len(prog.Pairs)))
	fmt.Printf("entry points:        %d\n", len(prog.Entries))
	if *statsOnly {
		return nil
	}

	// Invert the entry map for labeling.
	labels := map[int][]string{}
	for name, pc := range prog.Entries {
		labels[pc] = append(labels[pc], name)
	}
	fmt.Println()
	for i, pr := range prog.Pairs {
		for _, l := range labels[i] {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %4d: %-34s | %s\n", i, pr.A.String(), pr.B.String())
	}
	return nil
}
