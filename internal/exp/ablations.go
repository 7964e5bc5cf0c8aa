package exp

import (
	"fmt"
	"strings"

	"flashsim/internal/arch"
)

// ablateMDC sweeps the MAGIC data cache size on the OS workload, the
// MDC-hungriest application (Section 5.2 argues the 64 KB choice; this
// shows the knee).
func ablateMDC(pl *planner) func() string {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	runs := make([]*job, len(sizes))
	for i, sz := range sizes {
		cfg := pl.o.baseConfig(8)
		cfg.Placement = arch.PlaceRoundRobin
		cfg.MDCSize = sz
		runs[i] = pl.run("os", cfg, pl.o.paramsFor(8))
	}
	return func() string {
		base := uint64(runs[0].rep.Elapsed)
		rows := [][]string{}
		for i, sz := range sizes {
			r := runs[i].rep
			rows = append(rows, []string{
				fmt.Sprintf("%d KB", sz>>10),
				fmt.Sprintf("%.2f%%", 100*r.MDCMissRate),
				fmt.Sprintf("%.2f%%", 100*r.MDCReadMissRate),
				fmt.Sprintf("%.1f%%", 100*float64(r.Elapsed)/float64(base)),
			})
		}
		return "Ablation: MAGIC data cache size (OS workload, exec time normalized to 4 KB)\n" +
			table([]string{"MDC size", "Miss rate", "Read miss rate", "Exec time"}, rows)
	}
}

// ablateNetwork sweeps the network transit latency on FFT, showing how the
// flexibility cost tracks the remote fraction of the miss path. Both
// machines run on the swept wires: the network is shared, not part of the
// controller.
func ablateNetwork(pl *planner) func() string {
	transits := []uint32{11, 22, 44, 88}
	runs := make([]pair, len(transits))
	for i, transit := range transits {
		cfg := pl.o.baseConfig(16)
		cfg.Timing.NetTransit = transit
		runs[i] = pl.pair("fft", cfg, pl.o.paramsFor(16))
	}
	return func() string {
		rows := [][]string{}
		for i, transit := range transits {
			f, id := runs[i].flash.rep, runs[i].ideal.rep
			rows = append(rows, []string{
				fmt.Sprintf("%d cycles", transit),
				fmt.Sprint(f.Elapsed),
				fmt.Sprint(id.Elapsed),
				fmt.Sprintf("+%.1f%%", Slowdown(f, id)),
			})
		}
		return "Ablation: network transit latency (FFT, FLASH vs ideal)\n" +
			"(longer wires stretch the window in which lines are pending, so the\n" +
			" flexible controller's NAK/retry and occupancy costs compound)\n" +
			table([]string{"Transit", "FLASH cycles", "Ideal cycles", "Slowdown"}, rows)
	}
}

// ablateIssueWidth isolates the two PP optimizations of Section 5.3:
// dual-issue alone, and the special instructions alone, on MP3D (the
// paper's worst case).
func ablateIssueWidth(pl *planner) func() string {
	modes := []struct {
		name string
		mode arch.PPMode
	}{
		{"dual-issue + special instrs (MAGIC)", arch.PPDualIssue},
		{"single-issue + special instrs", arch.PPSingleIssue},
		{"single-issue + DLX substitution", arch.PPNoSpecial},
	}
	runs := make([]*job, len(modes))
	for i, m := range modes {
		cfg := pl.o.baseConfig(16)
		cfg.PPMode = m.mode
		runs[i] = pl.run("mp3d", cfg, pl.o.paramsFor(16))
	}
	return func() string {
		base := uint64(runs[0].rep.Elapsed)
		rows := [][]string{}
		for i, m := range modes {
			r := runs[i].rep
			rows = append(rows, []string{
				m.name,
				fmt.Sprint(r.Elapsed),
				fmt.Sprintf("%.1f%%", 100*float64(r.Elapsed)/float64(base)),
				fmt.Sprintf("%.1f%%", 100*r.AvgPPOcc),
			})
		}
		return "Ablation: PP issue width and ISA extensions (MP3D)\n" +
			table([]string{"PP configuration", "Cycles", "Relative", "Avg PP occ"}, rows)
	}
}

// ablations runs all design-choice sweeps.
func ablations(pl *planner) render {
	parts := []func() string{ablateMDC(pl), ablateNetwork(pl), ablateIssueWidth(pl)}
	return func(scores) (string, error) {
		var b strings.Builder
		for _, part := range parts {
			b.WriteString(part() + "\n")
		}
		return b.String(), nil
	}
}
