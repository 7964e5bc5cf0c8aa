package exp

import (
	"fmt"
	"strings"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/sim"
	"flashsim/internal/stats"
)

// paperProcs is the paper's processor count for an application: 16, or 8
// for the OS workload.
func paperProcs(app string) int {
	if app == "os" {
		return 8
	}
	return 16
}

// appConfig is the Chapter 4 machine for one application on np processors
// with cacheBytes caches: 16 KB instead of 4 KB for Ocean (the paper's
// footnote: cache conflicts with 128-byte lines), and round-robin paging
// for the OS workload.
func (o Options) appConfig(app string, np, cacheBytes int) arch.Config {
	cfg := o.baseConfig(np)
	cfg.CacheSize = cacheBytes
	if app == "ocean" && cacheBytes == 4<<10 {
		cfg.CacheSize = 16 << 10
	}
	if app == "os" {
		cfg.Placement = arch.PlaceRoundRobin
	}
	return cfg
}

// suite declares the listed applications on both machines at the given
// cache size, on the paper's processor counts unless Options.Procs is set.
func (pl *planner) suite(names []string, cacheBytes int) []pair {
	rows := make([]pair, len(names))
	for i, name := range names {
		np := paperProcs(name)
		if pl.o.Procs > 0 {
			np = pl.o.Procs
		}
		rows[i] = pl.pair(name, pl.o.appConfig(name, np, cacheBytes), pl.o.paramsFor(np))
	}
	return rows
}

// renderFig renders experiment exp's Figure 4.x execution-time comparison:
// normalized execution times with Busy/Read/Write/Sync breakdowns.
func renderFig(s scores, exp, title string, rows []pair) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	b.WriteString("(execution time normalized to FLASH = 100; components in points)\n")
	hdr := []string{"App", "Machine", "Total", "Busy", "Read", "Write", "Sync", "Slowdown"}
	out := [][]string{}
	for _, r := range rows {
		fl, id := r.flash.rep, r.ideal.rep
		norm := 100.0 / float64(fl.Elapsed)
		slowdown := Slowdown(fl, id)
		s.record(exp, r.app, "FLASH vs ideal", slowdown, r.flash, r.ideal)
		out = append(out, []string{
			r.app, "FLASH", "100.0",
			fmt.Sprintf("%.1f", float64(fl.Elapsed)*norm*fl.Breakdown.Busy),
			fmt.Sprintf("%.1f", float64(fl.Elapsed)*norm*fl.Breakdown.Read),
			fmt.Sprintf("%.1f", float64(fl.Elapsed)*norm*fl.Breakdown.Write),
			fmt.Sprintf("%.1f", float64(fl.Elapsed)*norm*fl.Breakdown.Sync),
			"",
		})
		out = append(out, []string{
			"", "ideal", fmt.Sprintf("%.1f", float64(id.Elapsed)*norm),
			fmt.Sprintf("%.1f", float64(id.Elapsed)*norm*id.Breakdown.Busy),
			fmt.Sprintf("%.1f", float64(id.Elapsed)*norm*id.Breakdown.Read),
			fmt.Sprintf("%.1f", float64(id.Elapsed)*norm*id.Breakdown.Write),
			fmt.Sprintf("%.1f", float64(id.Elapsed)*norm*id.Breakdown.Sync),
			fmt.Sprintf("+%.1f%%", slowdown),
		})
	}
	b.WriteString(table(hdr, out))
	return b.String()
}

// renderTable41 renders experiment exp's Table 4.1/4.2 statistics block.
func renderTable41(s scores, exp, title string, rows []pair) (string, error) {
	latF, _, err := MeasuredLatencies(arch.KindFLASH)
	if err != nil {
		return "", err
	}
	latI, _, err := MeasuredLatencies(arch.KindIdeal)
	if err != nil {
		return "", err
	}
	share := func(c arch.MissClass) func(stats.Report) float64 {
		return func(r stats.Report) float64 { return 100 * r.ReadClass[c] }
	}
	metrics := []struct {
		name, format string
		ideal        bool // read off the ideal leg, not the FLASH one
		v            func(stats.Report) float64
	}{
		{"Miss rate", "%.2f%%", false, func(r stats.Report) float64 { return 100 * r.MissRate }},
		{"Local Clean", "%.1f%%", false, share(arch.MissLocalClean)},
		{"Local Dirty Remote", "%.1f%%", false, share(arch.MissLocalDirty)},
		{"Remote Clean", "%.1f%%", false, share(arch.MissRemoteClean)},
		{"Remote Dirty at Home", "%.1f%%", false, share(arch.MissRemoteDirtyHome)},
		{"Remote Dirty Remote", "%.1f%%", false, share(arch.MissRemoteDirty3rd)},
		{"FLASH CRMT", "%.0f", false, func(r stats.Report) float64 { return r.CRMT(latF) }},
		{"Ideal CRMT", "%.0f", true, func(r stats.Report) float64 { return r.CRMT(latI) }},
		{"Avg Mem Occupancy", "%.1f%%", false, func(r stats.Report) float64 { return 100 * r.AvgMemOcc }},
		{"Avg PP Occupancy", "%.1f%%", false, func(r stats.Report) float64 { return 100 * r.AvgPPOcc }},
		{"Max PP Occupancy", "%.1f%%", false, func(r stats.Report) float64 { return 100 * r.MaxPPOcc }},
	}
	hdr := []string{"Metric"}
	for _, r := range rows {
		hdr = append(hdr, r.app)
		fl := r.flash.rep.ReadClass
		s.record(exp, r.app, "Remote (all classes)",
			100*(fl[arch.MissRemoteClean]+fl[arch.MissRemoteDirtyHome]+fl[arch.MissRemoteDirty3rd]), r.flash)
	}
	out := [][]string{}
	for _, m := range metrics {
		line := []string{m.name}
		for _, r := range rows {
			j := r.flash
			if m.ideal {
				j = r.ideal
			}
			v := m.v(j.rep)
			s.record(exp, r.app, m.name, v, j)
			line = append(line, fmt.Sprintf(m.format, v))
		}
		out = append(out, line)
	}
	return title + "\n" + table(hdr, out), nil
}

// renderSuite renders experiment exp's Figure 4.x comparison and its Table
// 4.x block.
func renderSuite(exp, fig, tab string, rows []pair) render {
	return func(s scores) (string, error) {
		t, err := renderTable41(s, exp, tab, rows)
		if err != nil {
			return "", err
		}
		return renderFig(s, exp, fig, rows) + "\n" + t, nil
	}
}

// fig41 regenerates Figure 4.1 and Table 4.1 (1 MB caches).
func fig41(pl *planner) render {
	return renderSuite("fig4.1", "Figure 4.1: execution times, FLASH vs ideal, 1 MB caches",
		"Table 4.1: read miss distributions and CRMT, 1 MB caches", pl.suite(apps.Names, 1<<20))
}

// fig42 regenerates Figure 4.2 and the 64 KB half of Table 4.2.
func fig42(pl *planner) render {
	return renderSuite("fig4.2", "Figure 4.2: execution times, FLASH vs ideal, 64 KB caches",
		"Table 4.2 (64 KB columns)", pl.suite([]string{"barnes", "fft", "mp3d", "ocean", "radix"}, 64<<10))
}

// fig43 regenerates Figure 4.3 and the 4 KB half of Table 4.2 (16 KB for
// Ocean, per the paper's footnote; Barnes is omitted as in the paper).
func fig43(pl *planner) render {
	return renderSuite("fig4.3", "Figure 4.3: execution times, FLASH vs ideal, 4 KB caches",
		"Table 4.2 (4 KB columns)", pl.suite([]string{"fft", "mp3d", "ocean", "radix"}, 4<<10))
}

// sec43 reproduces the Section 4.3 occupancy experiments: FFT with all
// memory on node 0 (high PP occupancy AND high memory occupancy at the hot
// node -> small slowdown), and the OS workload without round-robin paging
// (the original IRIX port: high PP occupancy, low memory occupancy -> large
// slowdown). Both read per-node occupancies off the FLASH leg's report.
func sec43(pl *planner) render {
	o := pl.o
	// FFT, 4 KB caches, all pages from node 0.
	cfg := o.baseConfig(16)
	cfg.CacheSize = 4 << 10
	cfg.Placement = arch.PlaceNodeZero
	fft := pl.pair("fft", cfg, o.paramsFor(16))

	// OS workload: round-robin (tuned) vs node-zero (original IRIX port).
	placements := []arch.Placement{arch.PlaceRoundRobin, arch.PlaceNodeZero}
	osRuns := make([]pair, len(placements))
	for i, place := range placements {
		cfg := o.baseConfig(8)
		cfg.Placement = place
		osRuns[i] = pl.pair("os", cfg, o.paramsFor(8))
	}

	return func(s scores) (string, error) {
		hot := fft.flash.rep
		hotPP := sim.Occupancy(hot.PerNode[0].PPBusy, hot.Elapsed)
		hotMem := sim.Occupancy(hot.PerNode[0].MemBusy, hot.Elapsed)
		fftRow := func(metric string, v float64) *paperRow {
			return s.paper("sec4.3", "FFT, all memory on node 0", metric, v, fft.flash, fft.ideal)
		}
		var b strings.Builder
		b.WriteString("Section 4.3: PP occupancy effects (hot-spotting)\n\n")
		b.WriteString(fmt.Sprintf("FFT (4 KB caches, all memory on node 0):\n"))
		b.WriteString(fmt.Sprintf("  node-0 PP occupancy  %.1f%%   (paper: %s)\n", 100*hotPP, fftRow("node-0 PP occupancy", 100*hotPP)))
		b.WriteString(fmt.Sprintf("  node-0 mem occupancy %.1f%%   (paper: %s)\n", 100*hotMem, fftRow("node-0 mem occupancy", 100*hotMem)))
		slowdown := Slowdown(fft.flash.rep, fft.ideal.rep)
		b.WriteString(fmt.Sprintf("  FLASH vs ideal       +%.1f%%  (paper: +%s)\n\n", slowdown, fftRow("FLASH vs ideal", slowdown)))
		var note string // the paper's figures for the node-zero pages
		for i, r := range osRuns {
			var maxPP, maxMem float64
			for _, n := range r.flash.rep.PerNode {
				maxPP = max(maxPP, sim.Occupancy(n.PPBusy, r.flash.rep.Elapsed))
				maxMem = max(maxMem, sim.Occupancy(n.MemBusy, r.flash.rep.Elapsed))
			}
			slowdown := Slowdown(r.flash.rep, r.ideal.rep)
			b.WriteString(fmt.Sprintf("OS workload, %v pages:\n", placements[i]))
			b.WriteString(fmt.Sprintf("  max PP occupancy  %.1f%%\n", 100*maxPP))
			b.WriteString(fmt.Sprintf("  max mem occupancy %.1f%%\n", 100*maxMem))
			b.WriteString(fmt.Sprintf("  FLASH vs ideal    +%.1f%%\n", slowdown))
			if placements[i] == arch.PlaceNodeZero {
				row := func(metric string, v float64) *paperRow {
					return s.paper("sec4.3", "OS, node-zero pages", metric, v, r.flash, r.ideal)
				}
				note = fmt.Sprintf("(paper: original port had %s max PP occupancy vs %s memory and a %s slowdown)\n",
					row("max PP occupancy", 100*maxPP), row("max mem occupancy", 100*maxMem), row("FLASH vs ideal", slowdown))
			}
		}
		b.WriteString(note)
		return b.String(), nil
	}
}

// sec45 reproduces the Section 4.5 scaling experiment: 64 processors with
// the 16-processor problem sizes.
func sec45(pl *planner) render {
	names := []string{"fft", "lu", "ocean"}
	runs := make([]pair, len(names))
	for i, name := range names {
		cfg := pl.o.baseConfig(64)
		cfg.MemBytesPerNode = 2 << 20 // keep the 64-node footprint sane
		runs[i] = pl.pair(name, cfg, pl.o.paramsFor(64))
	}
	return func(s scores) (string, error) {
		var b strings.Builder
		b.WriteString("Section 4.5: 64-processor runs at 16-processor problem sizes\n")
		rows := [][]string{}
		for _, r := range runs {
			slowdown := Slowdown(r.flash.rep, r.ideal.rep)
			rows = append(rows, []string{r.app, fmt.Sprintf("+%.1f%%", slowdown),
				fmt.Sprintf("(%s)", s.paper("sec4.5", r.app, "FLASH vs ideal", slowdown, r.flash, r.ideal))})
		}
		b.WriteString(table([]string{"App", "FLASH vs ideal", "paper"}, rows))
		return b.String(), nil
	}
}
