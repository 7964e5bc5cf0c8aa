// Package stats aggregates per-run statistics into the quantities the
// paper reports: execution-time breakdowns (Figures 4.1-4.3), miss rates
// and read-miss distributions, contentionless read miss times (CRMT),
// memory and protocol-processor occupancies (Tables 4.1-4.2), speculation
// effectiveness (Table 5.1), MDC behaviour (Section 5.2), and PP
// architecture statistics (Table 5.2).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/metrics"
	"flashsim/internal/ppsim"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Breakdown is the execution-time split of Figure 4.1, as fractions of
// elapsed time averaged over processors.
type Breakdown struct {
	Busy, Read, Write, Sync, Cont float64
}

// NodeStats is one node's raw occupancy record.
type NodeStats struct {
	// PPBusy is the cycles the node's protocol processor spent in handlers
	// (FLASH only); MemBusy the cycles its memory controller served line
	// accesses.
	PPBusy, MemBusy sim.Cycle
	// MemBacklogMax is the most line accesses any one memory access found
	// booked ahead of it (memsys.Memory.BacklogMax).
	MemBacklogMax uint64
}

// Report is the full statistics bundle for one run: everything a reader of
// a finished run gets, so every table, example and digest reads its numbers
// here rather than off the machine.
type Report struct {
	Machine arch.MachineKind
	Nodes   int
	Elapsed sim.Cycle
	// Events is the number of events the engine executed.
	Events uint64

	Breakdown Breakdown

	Refs       uint64
	Misses     uint64
	ReadMisses uint64
	MissRate   float64
	ReadClass  [arch.NumMissClasses]float64 // fractions of read misses
	Naks       uint64
	Writebacks uint64
	Hints      uint64

	// AvgMemOcc and MaxMemOcc (and AvgPPOcc, MaxPPOcc) are PerNode's busy
	// cycles over the quiesce time (its detailed share under sampling),
	// averaged over nodes and at the busiest node.
	AvgMemOcc, MaxMemOcc float64
	MemAccesses          uint64
	PerNode              []NodeStats

	// FLASH-only.
	AvgPPOcc, MaxPPOcc float64
	// PP sums every protocol processor's dynamic counters: the raw
	// figures behind DualIssueEff, SpecialUse and PairsPerHandler.
	PP                 ppsim.Stats
	HandlerInvocations uint64
	HandlersPerMiss    float64
	DualIssueEff       float64
	SpecialUse         float64
	PairsPerHandler    float64
	SpecReads          uint64
	SpecUseless        float64
	MDCMissRate        float64
	MDCReadMissRate    float64
	MDCAccesses        uint64
	MDCFillsOfMemOps   float64 // MDC fills as a share of memory operations

	NetMsgs uint64

	// ReadLatency histograms read-miss latency per miss class (issue to
	// first data word), machine-wide. The measured, contention-inclusive
	// counterpart of Table 3.3's analytic latencies.
	ReadLatency [arch.NumMissClasses]trace.Histogram

	// HandlerLatency histograms PP service time per handler entry point
	// (FLASH only): the distribution behind Table 3.4's averages. A sampled
	// run lists only handlers that completed in a detailed phase.
	HandlerLatency map[string]*trace.Histogram `json:",omitempty"`

	// OccWindow is the occupancy sampling window in cycles; when nonzero,
	// MemOccSeries (and PPOccSeries on FLASH) hold the machine-average
	// occupancy per window instead of only the whole-run scalars above.
	// Collect leaves them empty; AddOccupancy fills them.
	OccWindow    uint64    `json:",omitempty"`
	MemOccSeries []float64 `json:",omitempty"`
	PPOccSeries  []float64 `json:",omitempty"`

	// Sampled, when the run used SMARTS-style sampled execution, carries the
	// extrapolated execution-time estimate with its confidence interval. The
	// raw Elapsed above counts fast-forward cycles at their fixed charge
	// latencies and must not be compared against full-simulation numbers;
	// ElapsedEst is the comparable figure.
	Sampled *Sampled `json:",omitempty"`

	// Host carries the Go-runtime cost of producing this report — wall
	// clock, allocation and GC totals — when a process that ran only this
	// simulation measured it (flashsim with metrics on). Host-side only: it
	// never appears in the paper-facing text rendering.
	Host *metrics.HostDelta `json:",omitempty"`
}

// Sampled is the extrapolation section of a sampled run's report. The
// estimator follows the SMARTS recipe: each complete measurement window w
// retires R_w work references (non-synchronization references machine-wide;
// spin-loop references are excluded because their count is itself a timing
// artifact) in Detail cycles. The fast-forwarded work is priced at the
// work-weighted cost rate — the ratio estimator
//
//	c̄ = (windows * Detail) / ΣR_w        cycles per work reference
//	ElapsedEst = detailed cycles + FFWorkRefs * c̄
//
// rather than the unweighted mean of the per-window rates Detail/R_w, which
// over-weights slow windows (Jensen's inequality) and biases the estimate
// high. The confidence interval comes from the ratio estimator's Taylor
// linearization: the residual of window w is Detail - c̄*R_w, and the 95%
// half-width on c̄ is 1.96 * sqrt(Σresid² * n/(n-1)) / ΣR_w.
type Sampled struct {
	Spec arch.SampleSpec

	// DetailedCycles and FFCycles partition the raw elapsed time.
	DetailedCycles uint64
	FFCycles       uint64

	// FFWorkRefs counts non-synchronization references retired during
	// fast-forward phases, machine-wide; FFDispatches counts MAGIC handlers
	// run functionally.
	FFWorkRefs   uint64
	FFDispatches uint64

	// Windows is the number of complete measurement windows with nonzero
	// work, i.e. the sample size behind the confidence interval.
	Windows int

	// CyclesPerRef is the mean detailed cost rate mean(c_w);
	// CyclesPerRefCI is its 95% confidence half-width.
	CyclesPerRef   float64
	CyclesPerRefCI float64

	// ElapsedEst estimates what a full detailed simulation would have
	// reported as Elapsed; ElapsedCI is the 95% confidence half-width.
	ElapsedEst uint64
	ElapsedCI  uint64
}

// Collect gathers a Report from a finished machine.
func Collect(m *core.Machine) Report {
	r := Report{Machine: m.Cfg.Kind, Nodes: m.Cfg.Nodes, Elapsed: m.Elapsed, Events: m.Eng.ExecutedEvents()}
	el := float64(m.Elapsed)
	if el == 0 {
		el = 1
	}
	// Occupancy denominators use the quiesce time: controllers keep
	// draining writebacks briefly after the last processor retires. Under
	// sampling, occupancy only accumulates in detailed phases, so the
	// denominator shrinks to the detailed share of that span.
	total := m.Eng.Now()
	if total < m.Elapsed {
		total = m.Elapsed
	}
	occTotal := total
	if m.Cfg.Sample.Enabled() {
		occTotal = sim.Cycle(m.Cfg.Sample.DetailedCyclesThrough(uint64(total)))
		if occTotal == 0 {
			occTotal = 1
		}
	}
	flash := m.Cfg.Kind == arch.KindFLASH
	var classTot [arch.NumMissClasses]uint64
	var specReads, specUseless uint64
	var mdcR, mdcRM, mdcM uint64
	r.PerNode = make([]NodeStats, len(m.Nodes))
	if flash {
		r.HandlerLatency = make(map[string]*trace.Histogram)
	}
	for i, n := range m.Nodes {
		s := &n.CPU.Stats
		r.Refs += s.Refs
		r.Misses += s.Misses
		r.ReadMisses += s.ReadMisses
		r.Naks += s.Naks
		r.Writebacks += s.Writebacks
		r.Hints += s.Hints
		for c := 0; c < int(arch.NumMissClasses); c++ {
			classTot[c] += s.MissClass[c]
		}
		r.Breakdown.Busy += float64(s.Busy) / el
		r.Breakdown.Read += float64(s.ReadStall) / el
		r.Breakdown.Write += float64(s.WriteStall) / el
		r.Breakdown.Sync += float64(s.SyncStall) / el
		r.Breakdown.Cont += float64(s.ContStall) / el
		for c := 0; c < int(arch.NumMissClasses); c++ {
			r.ReadLatency[c].Merge(&s.ReadLat[c])
		}

		r.PerNode[i] = NodeStats{MemBusy: n.Mem.Busy(), MemBacklogMax: n.Mem.BacklogMax()}
		r.MemAccesses += n.Mem.Accesses()
		specReads += n.Mem.SpecReads
		specUseless += n.Mem.SpecUseless
		if !flash {
			continue
		}
		mg := n.Magic
		r.PerNode[i].PPBusy = mg.PPBusy()
		for entry, h := range mg.Handlers() {
			agg := r.HandlerLatency[entry]
			if agg == nil {
				agg = &trace.Histogram{}
				r.HandlerLatency[entry] = agg
			}
			agg.Merge(h)
		}
		ps := &mg.PP.Stats
		r.PP.Pairs += ps.Pairs
		r.PP.Instrs += ps.Instrs
		r.PP.ALUOrBranch += ps.ALUOrBranch
		r.PP.Special += ps.Special
		r.PP.StallCycles += ps.StallCycles
		r.HandlerInvocations += mg.Stats.Dispatches
		md := mg.PP.MDC.Stats
		mdcR += md.Reads
		r.MDCAccesses += md.Reads + md.Writes
		mdcRM += md.ReadMisses
		mdcM += md.ReadMisses + md.WriteMisses
	}
	np := float64(len(m.Nodes))
	r.Breakdown.Busy /= np
	r.Breakdown.Read /= np
	r.Breakdown.Write /= np
	r.Breakdown.Sync /= np
	r.Breakdown.Cont /= np
	var memSum, ppSum float64
	for _, nd := range r.PerNode {
		mem, pp := sim.Occupancy(nd.MemBusy, occTotal), sim.Occupancy(nd.PPBusy, occTotal)
		memSum += mem
		r.MaxMemOcc = max(r.MaxMemOcc, mem)
		ppSum += pp
		r.MaxPPOcc = max(r.MaxPPOcc, pp)
	}
	r.AvgMemOcc = memSum / np
	if r.Refs > 0 {
		r.MissRate = float64(r.Misses) / float64(r.Refs)
	}
	if r.ReadMisses > 0 {
		for c := 0; c < int(arch.NumMissClasses); c++ {
			r.ReadClass[c] = float64(classTot[c]) / float64(r.ReadMisses)
		}
	}
	r.SpecReads = specReads
	if specReads > 0 {
		r.SpecUseless = float64(specUseless) / float64(specReads)
	}

	if flash {
		r.AvgPPOcc = ppSum / np
		if r.Misses > 0 {
			r.HandlersPerMiss = float64(r.HandlerInvocations) / float64(r.Misses)
		}
		if r.PP.Pairs > 0 {
			r.DualIssueEff = float64(r.PP.Instrs) / float64(r.PP.Pairs)
		}
		if r.PP.ALUOrBranch > 0 {
			r.SpecialUse = float64(r.PP.Special) / float64(r.PP.ALUOrBranch)
		}
		if r.HandlerInvocations > 0 {
			r.PairsPerHandler = float64(r.PP.Pairs) / float64(r.HandlerInvocations)
		}
		if r.MDCAccesses > 0 {
			r.MDCMissRate = float64(mdcM) / float64(r.MDCAccesses)
		}
		if mdcR > 0 {
			r.MDCReadMissRate = float64(mdcRM) / float64(mdcR)
		}
		if r.MemAccesses > 0 {
			r.MDCFillsOfMemOps = float64(mdcM) / float64(r.MemAccesses)
		}
	}
	if m.Cfg.Sample.Enabled() {
		r.Sampled = collectSampled(m)
	}
	r.NetMsgs = m.Net.TotalMsgs()
	if m.Cfg.Sample.Enabled() {
		// Fast-forward chains hand messages node-to-node directly, bypassing
		// the modeled network; fold them in so the census stays exact.
		for _, n := range m.Nodes {
			if n.Magic != nil {
				r.NetMsgs += n.Magic.Stats.FFNetSends
			}
		}
	}
	return r
}

// collectSampled builds the extrapolation section from the per-CPU window
// work counters (see the Sampled doc comment for the estimator).
func collectSampled(m *core.Machine) *Sampled {
	spec := m.Cfg.Sample
	s := &Sampled{Spec: spec}
	s.DetailedCycles = spec.DetailedCyclesThrough(uint64(m.Elapsed))
	s.FFCycles = uint64(m.Elapsed) - s.DetailedCycles
	var win []uint64
	for _, n := range m.Nodes {
		cs := &n.CPU.Stats
		s.FFWorkRefs += cs.FFWork
		for w, refs := range cs.WinWork {
			for len(win) <= w {
				win = append(win, 0)
			}
			win[w] += refs
		}
		if n.Magic != nil {
			s.FFDispatches += n.Magic.Stats.FFDispatches
		}
	}
	// Only complete windows enter the estimator: a window cut short by the
	// end of the run would overstate the cost rate, and a zero-work window
	// has no rate at all.
	var work []uint64
	for w, refs := range win {
		if refs == 0 || spec.WindowEnd(w) > uint64(m.Elapsed) {
			continue
		}
		work = append(work, refs)
	}
	s.Windows = len(work)
	if len(work) == 0 {
		// No usable windows (the run ended inside warm-up or the first
		// window): report the raw elapsed time with no extrapolation.
		s.ElapsedEst = uint64(m.Elapsed)
		return s
	}
	// Work-weighted ratio estimator (see the Sampled doc comment).
	var totalRefs uint64
	for _, refs := range work {
		totalRefs += refs
	}
	mean := float64(len(work)) * float64(spec.Detail) / float64(totalRefs)
	s.CyclesPerRef = mean
	if n := len(work); n > 1 {
		residsum := 0.0
		for _, refs := range work {
			d := float64(spec.Detail) - mean*float64(refs)
			residsum += d * d
		}
		se := math.Sqrt(residsum*float64(n)/float64(n-1)) / float64(totalRefs)
		s.CyclesPerRefCI = 1.96 * se
	}
	s.ElapsedEst = s.DetailedCycles + uint64(mean*float64(s.FFWorkRefs)+0.5)
	s.ElapsedCI = uint64(s.CyclesPerRefCI*float64(s.FFWorkRefs) + 0.5)
	return s
}

// AddOccupancy fills the occupancy-over-time fields from a trace.Occupancy
// sink that observed the run, averaging its per-window sums over the
// report's nodes.
func (r *Report) AddOccupancy(o *trace.Occupancy) {
	r.OccWindow = o.Mem.Window
	r.MemOccSeries = o.Mem.Fractions(r.Nodes)
	r.PPOccSeries = o.PP.Fractions(r.Nodes)
}

// CRMT computes the contentionless read miss time: the read-miss class
// distribution weighted by the no-contention latencies (Table 3.3 style).
func (r *Report) CRMT(lat [arch.NumMissClasses]sim.Cycle) float64 {
	t := 0.0
	for c := 0; c < int(arch.NumMissClasses); c++ {
		t += r.ReadClass[c] * float64(lat[c])
	}
	return t
}

// JSON renders the full report as indented JSON for machine consumption.
func (r Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report in the layout of the paper's tables.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v machine, %d nodes, %d cycles\n", r.Machine, r.Nodes, r.Elapsed)
	if s := r.Sampled; s != nil {
		fmt.Fprintf(&b, "  sampled (%v): est %d cycles ±%d (95%% CI), %d windows, %.2f±%.2f cyc/ref, ff refs %d\n",
			s.Spec, s.ElapsedEst, s.ElapsedCI, s.Windows, s.CyclesPerRef, s.CyclesPerRefCI, s.FFWorkRefs)
	}
	fmt.Fprintf(&b, "  breakdown: busy %.1f%%  read %.1f%%  write %.1f%%  sync %.1f%%  cont %.1f%%\n",
		100*r.Breakdown.Busy, 100*r.Breakdown.Read, 100*r.Breakdown.Write, 100*r.Breakdown.Sync, 100*r.Breakdown.Cont)
	fmt.Fprintf(&b, "  refs %d  miss rate %.3f%%  read misses %d  naks %d\n", r.Refs, 100*r.MissRate, r.ReadMisses, r.Naks)
	fmt.Fprintf(&b, "  read miss classes:")
	for c := 0; c < int(arch.NumMissClasses); c++ {
		fmt.Fprintf(&b, "  %s %.1f%%", arch.MissClass(c), 100*r.ReadClass[c])
	}
	fmt.Fprintf(&b, "\n  mem occ avg %.1f%% max %.1f%%", 100*r.AvgMemOcc, 100*r.MaxMemOcc)
	if r.Machine == arch.KindFLASH {
		fmt.Fprintf(&b, "  PP occ avg %.1f%% max %.1f%%", 100*r.AvgPPOcc, 100*r.MaxPPOcc)
		fmt.Fprintf(&b, "\n  PP: dual-issue %.2f  special %.0f%%  pairs/handler %.1f  handlers/miss %.2f",
			r.DualIssueEff, 100*r.SpecialUse, r.PairsPerHandler, r.HandlersPerMiss)
		fmt.Fprintf(&b, "\n  MDC: miss %.2f%% read-miss %.2f%%  spec useless %.1f%%",
			100*r.MDCMissRate, 100*r.MDCReadMissRate, 100*r.SpecUseless)
	}
	fmt.Fprintf(&b, "\n")
	for c := 0; c < int(arch.NumMissClasses); c++ {
		h := &r.ReadLatency[c]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  read latency %-14s %s\n", arch.MissClass(c).String()+":", h)
	}
	if len(r.HandlerLatency) > 0 {
		entries := make([]string, 0, len(r.HandlerLatency))
		for e := range r.HandlerLatency {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool {
			hi, hj := r.HandlerLatency[entries[i]], r.HandlerLatency[entries[j]]
			if hi.Count != hj.Count {
				return hi.Count > hj.Count
			}
			return entries[i] < entries[j]
		})
		fmt.Fprintf(&b, "  handler service times:\n")
		for _, e := range entries {
			fmt.Fprintf(&b, "    %-24s %s\n", e, r.HandlerLatency[e])
		}
	}
	if r.OccWindow != 0 {
		writeSeries(&b, "mem occ", r.OccWindow, r.MemOccSeries)
		if r.Machine == arch.KindFLASH {
			writeSeries(&b, "PP occ", r.OccWindow, r.PPOccSeries)
		}
	}
	return b.String()
}

// writeSeries renders one occupancy-over-time curve as a compact sparkline
// of percentages, one value per sampling window.
func writeSeries(b *strings.Builder, label string, window uint64, vals []float64) {
	if len(vals) == 0 {
		return
	}
	fmt.Fprintf(b, "  %s per %d cycles:", label, window)
	for _, v := range vals {
		fmt.Fprintf(b, " %.0f%%", 100*v)
	}
	fmt.Fprintf(b, "\n")
}
