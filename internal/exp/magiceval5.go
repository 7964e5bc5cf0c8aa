package exp

import (
	"fmt"
	"strings"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
)

// table51 measures the impact of speculative memory operations: the
// fraction of useless speculative reads with speculation on, and the
// execution-time increase with it disabled (Section 5.1). The
// speculation-on legs are the Figure 4.1/4.3 FLASH legs.
func table51(pl *planner, cacheBytes int) render {
	names := apps.Names
	if cacheBytes <= 16<<10 {
		// The paper omits Barnes, LU, and OS at the small cache size.
		names = []string{"fft", "mp3d", "ocean", "radix"}
	}
	on, off := make([]*job, len(names)), make([]*job, len(names))
	for i, name := range names {
		np := pl.o.procsFor(name)
		cfg := pl.o.appConfig(name, np, cacheBytes)
		p := pl.o.paramsFor(np)
		on[i] = pl.run(name, cfg, p)
		cfg.Speculation = false
		off[i] = pl.run(name, cfg, p)
	}
	exp := "table5.1small"
	if cacheBytes == 1<<20 {
		exp = "table5.1"
	}
	return func(s scores) (string, error) {
		out := [][]string{}
		for i, name := range names {
			useless := 100 * on[i].rep.SpecUseless
			slowdown := 100 * (float64(off[i].rep.Elapsed)/float64(on[i].rep.Elapsed) - 1)
			s.record(exp, "every app", "Useless spec reads", useless, on[i])
			s.record(exp, "every app", "Exec time w/o speculation", slowdown, on[i], off[i])
			out = append(out, []string{name, fmt.Sprintf("%.1f%%", useless), fmt.Sprintf("%+.1f%%", slowdown)})
		}
		title := fmt.Sprintf("Table 5.1: speculative memory operations, %d KB caches", cacheBytes>>10)
		return title + "\n" + table([]string{"App", "Useless spec reads", "Exec time w/o speculation"}, out), nil
	}
}

// sec52 stresses the MAGIC data cache: a uniprocessor radix sort over a
// data set whose directory footprint exceeds the MDC, plus the OS
// workload's MDC rates (Section 5.2).
func sec52(pl *planner) render {
	o := pl.o
	// Uniprocessor radix with a data set whose directory footprint exceeds
	// the MDC's reach, as in the paper's uniprocessor stress run: 4 MB of
	// keys per unit scale, which Params.Scale's clamp at 1 holds to radix's
	// full 256K keys (2 MB) below scale 2, and at least one key past scale
	// 512K. The header prints the keys run.
	cfg := o.baseConfig(1)
	cfg.Nodes = 1
	cfg.MemBytesPerNode = 32 << 20
	p := apps.Params{Procs: 1, Scale: max((256*1024)/max((4<<20)/8/o.Scale, 1), 1)}
	keys := apps.RadixKeys(p)
	uni := pl.run("radix", cfg, p)
	// Compare against a FLASH machine with a huge MDC (the paper's "no MDC
	// miss penalty" uniprocessor).
	cfg.MDCSize = 8 << 20
	big := pl.run("radix", cfg, p)
	// OS workload MDC rates.
	oc := o.baseConfig(8)
	oc.Placement = arch.PlaceRoundRobin
	osr := pl.run("os", oc, o.paramsFor(8))

	return func(s scores) (string, error) {
		run := uni.rep
		radixRow := func(metric string, v float64, from ...*job) *paperRow {
			return s.paper("sec5.2", "uniprocessor radix", metric, v, from...)
		}
		osRow := func(metric string, v float64) *paperRow { return s.paper("sec5.2", "OS", metric, v, osr) }
		slowdown := 100 * (float64(run.Elapsed)/float64(big.rep.Elapsed) - 1)
		var b strings.Builder
		b.WriteString("Section 5.2: MAGIC data cache behaviour\n\n")
		b.WriteString(fmt.Sprintf("Uniprocessor radix sort (%d KB of keys):\n", keys*8>>10))
		b.WriteString(fmt.Sprintf("  processor cache miss rate %.2f%%  (paper: %s)\n", 100*run.MissRate, radixRow("processor cache miss rate", 100*run.MissRate, uni)))
		b.WriteString(fmt.Sprintf("  MDC miss rate             %.1f%%  (paper: %s)\n", 100*run.MDCMissRate, radixRow("MDC miss rate", 100*run.MDCMissRate, uni)))
		b.WriteString(fmt.Sprintf("  MDC read miss rate        %.1f%%  (paper: %s)\n", 100*run.MDCReadMissRate, radixRow("MDC read miss rate", 100*run.MDCReadMissRate, uni)))
		b.WriteString(fmt.Sprintf("  slowdown vs no-MDC-miss machine: +%.1f%%  (paper: +%s)\n\n",
			slowdown, radixRow("slowdown vs no-MDC-miss machine", slowdown, uni, big)))
		b.WriteString("OS workload:\n")
		b.WriteString(fmt.Sprintf("  MDC miss rate      %.1f%%  (paper: %s)\n", 100*osr.rep.MDCMissRate, osRow("MDC miss rate", 100*osr.rep.MDCMissRate)))
		b.WriteString(fmt.Sprintf("  MDC read miss rate %.1f%%  (paper: %s)\n", 100*osr.rep.MDCReadMissRate, osRow("MDC read miss rate", 100*osr.rep.MDCReadMissRate)))
		b.WriteString(fmt.Sprintf("  MDC fills / memory operations %.1f%%  (paper: %s)\n", 100*osr.rep.MDCFillsOfMemOps, osRow("MDC fills / memory operations", 100*osr.rep.MDCFillsOfMemOps)))
		return b.String(), nil
	}
}

// table52 reports the PP architecture statistics of Table 5.2: static code
// size and the dynamic dual-issue/special-instruction figures summed over
// the parallel application suite's FLASH legs, from each leg's report.
func table52(pl *planner, cacheBytes int) render {
	names := []string{"barnes", "fft", "lu", "mp3d", "ocean", "radix"}
	if cacheBytes <= 64<<10 {
		names = []string{"barnes", "fft", "mp3d", "ocean", "radix"}
	}
	rows := pl.suite(names, cacheBytes)
	return func(s scores) (string, error) {
		cfg := arch.DefaultConfig()
		prog, err := protocol.Build(&cfg)
		if err != nil {
			return "", err
		}
		// Dynamic stats summed across the suite's FLASH legs.
		var sInstr, sPairs, sALU, sSpec, sInv, sMiss uint64
		var legs []*job
		for _, r := range rows {
			f := &r.flash.rep
			sInstr += f.PP.Instrs
			sPairs += f.PP.Pairs
			sALU += f.PP.ALUOrBranch
			sSpec += f.PP.Special
			sInv += f.HandlerInvocations
			sMiss += f.Misses
			legs = append(legs, r.flash)
		}
		codeKB := float64(prog.Code.CodeBytes()) / 1024
		suite := func(metric string, v float64) *paperRow { return s.paper("table5.2", "suite", metric, v, legs...) }
		dual, special := float64(sInstr)/float64(sPairs), 100*float64(sSpec)/float64(sALU)
		pairs, perMiss := float64(sPairs)/float64(sInv), float64(sInv)/float64(sMiss)
		var b strings.Builder
		fmt.Fprintf(&b, "Table 5.2: PP architecture evaluation (%d KB caches)\n", cacheBytes>>10)
		fmt.Fprintf(&b, "  static code size (with NOPs)        %.1f KB   (paper: %s)\n", codeKB, s.paper("table5.2", "protocol", "static code size (with NOPs)", codeKB))
		fmt.Fprintf(&b, "  dynamic dual-issue efficiency       %.2f     (paper: %s)\n", dual, suite("dynamic dual-issue efficiency", dual))
		fmt.Fprintf(&b, "  special instruction use             %.0f%%     (paper: %s)\n", special, suite("special instruction use", special))
		fmt.Fprintf(&b, "  instruction pairs per handler       %.1f     (paper: %s)\n", pairs, suite("instruction pairs per handler", pairs))
		fmt.Fprintf(&b, "  handler invocations per cache miss  %.2f     (paper: %s)\n", perMiss, suite("handler invocations per cache miss", perMiss))
		return b.String(), nil
	}
}

// table53 performs the static special-instruction analysis of Table 5.3:
// for each special instruction in the protocol, the size of its DLX
// substitution sequence.
func table53(s scores) (string, error) {
	cfg := arch.DefaultConfig()
	prog, err := protocol.Build(&cfg)
	if err != nil {
		return "", err
	}
	type acc struct{ count, expanded int }
	byKind := map[string]*acc{}
	for _, in := range prog.Source.Instrs {
		var kind string
		switch in.Op {
		case ppisa.FFS:
			kind = "find first set bit"
		case ppisa.BBS, ppisa.BBC:
			kind = "branch on bit"
		case ppisa.ORFI, ppisa.ANDFI:
			kind = "ALU field immediate"
		case ppisa.INS:
			kind = "insert field"
		case ppisa.EXT:
			kind = "extract field"
		default:
			continue
		}
		isolated := in
		isolated.Target, isolated.Sym = 0, "" // size analysis only
		one := &ppisa.Source{Instrs: []ppisa.Instr{isolated}, Labels: map[string]int{}}
		sub := ppisa.SubstituteDLX(one)
		a := byKind[kind]
		if a == nil {
			a = &acc{}
			byKind[kind] = a
		}
		a.count++
		a.expanded += len(sub.Instrs)
	}
	rows := [][]string{}
	for _, k := range sortedKeys(byKind) {
		a := byKind[k]
		mean := float64(a.expanded) / float64(a.count)
		s.record("table5.3", k, "DLX instrs", mean)
		rows = append(rows, []string{k, fmt.Sprint(a.count), fmt.Sprintf("%.1f", mean)})
	}
	ffs := published("table5.3", "find first set bit", "DLX instrs")
	title := "Table 5.3: special instructions vs DLX substitution (static)\n" +
		fmt.Sprintf("(paper: ffs %s or %s instrs; branch-on-bit %s; field immediate %s;\n", num(ffs.lo), num(ffs.hi),
			published("table5.3", "branch on bit", "DLX instrs"), published("table5.3", "ALU field immediate", "DLX instrs")) +
		" insert = two field immediates + or)\n"
	return title + table([]string{"Instruction type", "Static uses", "Mean DLX instrs"}, rows), nil
}

// sec53 measures the Section 5.3 ablation: protocol handlers compiled
// without special instructions and scheduled single-issue.
func sec53(pl *planner) render {
	names := []string{"fft", "lu", "mp3d", "ocean", "radix", "barnes"}
	opt, slow := make([]*job, len(names)), make([]*job, len(names))
	for i, name := range names {
		cfg := pl.o.baseConfig(16)
		p := pl.o.paramsFor(16)
		opt[i] = pl.run(name, cfg, p)
		cfg.PPMode = arch.PPNoSpecial
		slow[i] = pl.run(name, cfg, p)
	}
	return func(s scores) (string, error) {
		out := [][]string{}
		sum, max := 0.0, 0.0
		for i, name := range names {
			slowdown := 100 * (float64(slow[i].rep.Elapsed)/float64(opt[i].rep.Elapsed) - 1)
			out = append(out, []string{name, fmt.Sprintf("+%.1f%%", slowdown)})
			sum += slowdown
			if slowdown > max {
				max = slowdown
			}
		}
		var b strings.Builder
		b.WriteString("Section 5.3: non-optimized PP (single-issue, DLX substitution)\n")
		b.WriteString(table([]string{"App", "Execution time increase"}, out))
		avg, jobs := sum/float64(len(names)), append(opt[:len(opt):len(opt)], slow...)
		fmt.Fprintf(&b, "average +%.1f%%, maximum +%.1f%%  (paper: average +%s, max +%s on MP3D)\n", avg, max,
			s.paper("sec5.3", "suite", "average increase", avg, jobs...), s.paper("sec5.3", "suite", "maximum increase", max, jobs...))
		return b.String(), nil
	}
}

// protoCompare runs the application suite under both coherence protocol
// programs — dynamic pointer allocation and the DASH-style bit-vector
// directory — demonstrating the flexibility the paper's conclusion argues
// for: the same machine, a different handler program.
func protoCompare(pl *planner) render {
	names := []string{"fft", "ocean", "radix", "mp3d"}
	dyn, bv := make([]*job, len(names)), make([]*job, len(names))
	for i, name := range names {
		cfg := pl.o.baseConfig(16)
		p := pl.o.paramsFor(16)
		dyn[i] = pl.run(name, cfg, p)
		cfg.Protocol = arch.ProtoBitVector
		bv[i] = pl.run(name, cfg, p)
	}
	return func(scores) (string, error) {
		out := [][]string{}
		for i, name := range names {
			d, v := dyn[i].rep, bv[i].rep
			out = append(out, []string{
				name,
				fmt.Sprint(uint64(d.Elapsed)), fmt.Sprint(uint64(v.Elapsed)),
				fmt.Sprintf("%+.1f%%", 100*(float64(v.Elapsed)/float64(d.Elapsed)-1)),
				pct(d.AvgPPOcc), pct(v.AvgPPOcc),
				fmt.Sprintf("%.1f", d.PairsPerHandler), fmt.Sprintf("%.1f", v.PairsPerHandler),
			})
		}
		title := "Protocol flexibility: dynamic pointer allocation vs bit-vector directory\n" +
			"(same machine, same jump table — a different handler program)\n"
		return title + table([]string{"App", "dynptr cycles", "bitvec cycles", "delta",
			"dynptr PP occ", "bitvec PP occ", "dynptr pairs/h", "bitvec pairs/h"}, out), nil
	}
}
