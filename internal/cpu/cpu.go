package cpu

import (
	"fmt"
	"slices"

	"flashsim/internal/arch"
	"flashsim/internal/memsys"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// RMWOp selects the atomic operation of a RefRMW reference.
type RMWOp uint8

const (
	RMWSwap RMWOp = iota // out = old; mem = operand
	RMWAdd               // out = old; mem = old + operand
)

// Ref is one memory reference from the workload. Busy is the number of
// processor instructions executed since the previous reference (charged at
// 4 instructions per system cycle: a 400-MIPS processor on a 100 MHz
// clock). Sync attributes the reference's busy and stall time to the
// synchronization category.
//
// Data values flow through the machine's backing store at simulated
// completion order: reads deposit into *Out, writes carry WVal.
//
// The fields are ordered by size, so a Ref is 32 bytes with no padding
// (TestRefSize): every workload thread holds a batch of them.
type Ref struct {
	Addr arch.Addr
	WVal uint64
	Out  *uint64
	Busy uint32
	Kind arch.RefKind
	Sync bool
	RMW  RMWOp
}

// RefSource produces a processor's reference stream in batches: each call
// returns the next run of references in program order, so a burst of
// non-blocking references costs one handshake instead of one per reference.
// NextBatch is called from the simulation goroutine and may block until the
// workload thread produces its next flush; it must never depend on another
// simulated processor making progress except through simulated memory. The
// returned slice is owned by the CPU until every element has been consumed
// and the final blocking reference's ReadDone has fired.
type RefSource interface {
	NextBatch() ([]Ref, bool)
	// ReadDone is invoked after a read or RMW completes and its Out value
	// is filled, releasing the workload thread. When the run loop calls it
	// for a cache hit, the thread it resumes may retire its next cache hits
	// through Hit before ReadDone returns.
	ReadDone()
}

// Ctl is the node controller as seen from the processor: MAGIC's PI or the
// idealized controller. FromProc is invoked when the message has crossed
// the processor bus, at simulated time `at`.
type Ctl interface {
	FromProc(m arch.Msg, at sim.Cycle)
	// FromProcFF is the functional fast-forward entry: the request is
	// processed synchronously (possibly completing — Deliver — before the
	// call returns) with at as its nominal arrival time. Only called on
	// machines with sampling enabled.
	FromProcFF(m arch.Msg, at sim.Cycle)
}

// Stats is the per-processor execution-time breakdown and miss census.
type Stats struct {
	Busy       sim.Cycle // compute cycles
	ReadStall  sim.Cycle
	WriteStall sim.Cycle
	SyncStall  sim.Cycle
	ContStall  sim.Cycle // bus-contention cycles folded into issue latency

	Refs, Reads, Writes, RMWs uint64
	Misses, ReadMisses        uint64
	UpgradeMisses             uint64
	MissClass                 [arch.NumMissClasses]uint64
	Naks                      uint64
	Writebacks, Hints         uint64

	// ReadLat histograms read-miss latency per miss class, from the cycle
	// the reference reached the cache to the first data word on the bus —
	// the measured counterpart of the paper's contentionless Table 3.3
	// latencies. Always on: recording is a few integer ops per miss.
	ReadLat [arch.NumMissClasses]trace.Histogram

	// Sampled-execution counters (zero unless arch.Config.Sample is
	// enabled). FFWork counts non-synchronization references retired in
	// fast-forward phases; WinWork[w] counts them per detailed measurement
	// window w. Synchronization references are excluded from both: spin
	// loops retire at a timing-dependent rate, so they would bias the
	// work-per-cycle extrapolation that stats.Collect builds from these.
	FFWork  uint64
	WinWork []uint64

	// Finished is set, with FinishedAt the processor's clock, when the
	// reference stream runs out.
	FinishedAt sim.Cycle
	Finished   bool
}

type blockReason uint8

const (
	blockNone       blockReason = iota
	blockMiss                   // waiting for a specific MSHR to complete
	blockStructural             // waiting for any MSHR to free / conflict to clear
)

func (r blockReason) String() string { return [...]string{"none", "miss", "structural"}[r] }

type mshrEntry struct {
	valid bool
	line  uint64
	kind  arch.MsgType // MsgGET or MsgGETX
	ref   Ref          // the triggering reference (for Out/WVal/classify)

	// invalOnFill is set when an invalidation arrives for a line with a
	// read miss outstanding: the read was serialized before the writer at
	// the home, so it completes with the returned data, but the copy must
	// not remain cached.
	invalOnFill bool

	// retries counts NAK bounces for this miss; the retry backoff grows
	// exponentially with a node-dependent jitter so that deterministic
	// retry convoys on contended lines dissolve instead of livelocking.
	retries int

	// ffIssued marks a miss issued during a fast-forward phase: its fill
	// skips bus reservations and is excluded from the read-latency
	// histograms (its issue time carries fast-forward charges, not
	// detailed timing).
	ffIssued bool

	issuedAt sim.Cycle // virtual time the triggering reference missed
	tid      uint64    // trace id of the miss-issue event (0 = untraced)

	// stores holds the values of the triggering write and any writes
	// merged into this exclusive miss, in program order. They apply to the
	// backing view at fill — when the coherence protocol actually grants
	// ownership — so that conflicting writes from different nodes reach
	// the view in coherence order, which the window-quantized store
	// visibility (memsys.View) relies on.
	stores []pendingStore
}

type pendingStore struct {
	addr arch.Addr
	val  uint64
}

// CPU is one node's compute processor.
type CPU struct {
	flight   // leads: a hit reads its first fields, then Cache, mem and procState
	Cache    *Cache
	mem      *memsys.View // this node's window-quantized view of the backing store
	sampling bool
	procState

	ID arch.NodeID

	// Tr, when non-nil, receives structured cache/miss events. Injected per
	// machine (core.Machine.SetTracer); nil costs one branch per site.
	Tr *trace.Tracer

	eng   sim.Scheduler
	t     arch.Timing
	cfg   *arch.Config
	ctl   Ctl
	chunk sim.Cycle

	// Sampled execution: phase is a pure function of the cycle (spec is
	// immutable after construction), so every decision below is
	// deterministic across engine backends and worker counts.
	spec    arch.SampleSpec
	ffChunk sim.Cycle // longer run slices between yields while fast-forwarding

	// rerun restarts the run loop at the engine clock: the one event body
	// behind every reschedule, built once (events fire at the cycle they
	// were scheduled for, so the clock is the loop's start time).
	rerun func()

	// retry[e] reissues MSHR e's request at the engine clock: the NAK
	// backoff event, one per entry, built once like rerun.
	retry []func()
	// ivFree recycles intervention completion events.
	ivFree *intervention
}

// flight is what a run holds in flight between its events, listed once:
// RestoreState resets it in one statement, quiet tests it, DebugState prints
// every field.
type flight struct {
	// vt is the processor's virtual clock and limit the end of the current
	// run slice; both are only meaningful while run is on the stack. They
	// are fields rather than run's locals because the workload thread
	// advances them too: live is set while run is parked inside a cache
	// hit's ReadDone (hitDone), and for that long the resumed thread retires
	// its cache hits itself through Hit — the same charge, the same limit
	// test between references — and batches everything else back to the
	// loop.
	vt, limit sim.Cycle
	live      bool
	inUse     int // valid MSHR entries

	mshrs []mshrEntry // cfg.MSHRs entries

	src      RefSource
	batch    []Ref // current batch from the source
	batchPos int   // next unconsumed batch element

	pending    Ref  // reference being retried/blocked
	hasPending bool // pending holds an unretired reference
	pendingAt  sim.Cycle
	blocked    blockReason
	blockEntry int // the MSHR a blockMiss processor waits on

	// issuing is 1 + the MSHR entry whose request is mid-flight through a
	// synchronous fast-forward chain (0 otherwise): if Deliver completes it
	// before issue() returns, the reference retires without blocking.
	issuing int

	// phaseDet/phaseEnd cache the schedule phase for the run loop's
	// monotonic virtual clock: one compare per reference instead of a
	// modulo (see SampleSpec.PhaseAt).
	phaseDet bool
	phaseEnd uint64

	// Snapshot pause support: when pauseAfter is nonzero, the run loop
	// parks itself at the first batch-refill boundary at or after retiring
	// pauseAfter references, instead of pulling the next batch. Pausing
	// only at batch boundaries means the workload coroutine is parked
	// inside a flush-yield and the CPU holds no partially consumed batch;
	// outstanding non-blocking write misses then drain through deliver()
	// without resuming the loop, so the machine quiesces.
	pauseAfter uint64
}

// quiet reports whether nothing is in flight: no outstanding miss, no
// blocked or pending reference, no partially consumed batch. The pause arm,
// the phase cache and the slice clock may hold anything.
func (f *flight) quiet() bool {
	return f.inUse == 0 && !f.hasPending && f.blocked == blockNone && f.batchPos >= len(f.batch)
}

// procState is the processor's simulated state, listed once: CPU embeds
// it, and CPUState carries a copy. Everything else in CPU is configuration,
// wiring, or in flight during a run (RestoreState clears that).
type procState struct {
	instFrac uint32 // leftover instructions (< 4) not yet charged as a cycle
	Stats    Stats
	Bus      sim.Server
	paused   bool // the run loop is parked at a PauseAfter pause point
}

// New creates a CPU. mem is this node's view of the machine-wide backing
// store (8-byte words indexed by physical address / 8).
func New(id arch.NodeID, eng sim.Scheduler, cfg *arch.Config, ctl Ctl, mem *memsys.View) *CPU {
	if cfg.Sample.Enabled() {
		// Synchronous fast-forward chains complete cross-node transfers in
		// zero engine time, so the window-quantized store visibility would
		// expose stale data mid-chain. Sampled execution is serialized
		// (single engine worker), so publishing stores immediately is
		// race-free and preserves coherence order.
		mem.SetWriteThrough(true)
	}
	c := &CPU{
		ID:       id,
		Cache:    NewCache(cfg.CacheSize, cfg.CacheWays),
		eng:      eng,
		t:        cfg.Timing,
		cfg:      cfg,
		ctl:      ctl,
		mem:      mem,
		chunk:    16,
		sampling: cfg.Sample.Enabled(),
		spec:     cfg.Sample,
		ffChunk:  256,
		flight:   flight{mshrs: make([]mshrEntry, cfg.MSHRs)},
	}
	c.rerun = func() { c.run(c.eng.Now()) }
	c.retry = make([]func(), len(c.mshrs))
	for e := range c.retry {
		c.retry[e] = func() { c.issue(e, c.eng.Now()) }
	}
	return c
}

// detailed reports whether cycle t falls in a detailed phase (always true
// when sampling is off; one branch on the hot path).
func (c *CPU) detailed(t sim.Cycle) bool {
	return !c.sampling || c.spec.Detailed(uint64(t))
}

// phaseDetailed is the cached variant of detailed for the run loop's own
// virtual clock, which only moves forward: a compare per call, refreshed
// when the clock crosses a phase boundary. Only valid under sampling.
func (c *CPU) phaseDetailed(t uint64) bool {
	if t >= c.phaseEnd {
		c.phaseDet, c.phaseEnd = c.spec.PhaseAt(t)
	}
	return c.phaseDet
}

// SetSource attaches the reference stream.
func (c *CPU) SetSource(src RefSource) { c.src = src }

// Start schedules the processor's first fetch.
func (c *CPU) Start() {
	c.eng.At(c.eng.Now(), c.rerun)
}

// run consumes references starting at virtual time vt, processing cache
// hits inline and yielding an event every `chunk` cycles so that the rest
// of the machine interleaves.
func (c *CPU) run(vt sim.Cycle) {
	if c.Stats.Finished {
		return
	}
	// Fast-forward phases yield far less often: the processor's compute
	// progress is functional there, so fine-grained interleaving with the
	// (idle) detailed machinery buys nothing but event dispatches.
	c.vt, c.limit = vt, vt+c.chunk
	if c.sampling && !c.phaseDetailed(uint64(vt)) {
		c.limit = vt + c.ffChunk
	}
	if c.hasPending {
		// resume() restarted the loop with the blocked reference unretired.
		c.hasPending = false
		if !c.tryRef(&c.pending) || c.sliceOver() {
			return
		}
	}
	for {
		if c.pauseAfter != 0 && !c.paused && c.batchPos >= len(c.batch) &&
			c.Stats.Refs >= c.pauseAfter {
			c.paused = true
			return
		}
		ref, ok := c.nextRef()
		if !ok {
			c.Stats.Finished, c.Stats.FinishedAt = true, c.vt
			return
		}
		if !c.step(ref) || c.sliceOver() {
			return // blocked (resume() restarts us) or rescheduled
		}
	}
}

// step executes one reference at the processor's virtual clock: charge its
// busy instructions, then attempt it. It returns false if the processor
// blocked, with the reference retained in c.pending. This is the whole
// per-reference body of the run loop; Hit is its hit branch.
func (c *CPU) step(ref *Ref) bool {
	c.vt += c.charge(ref.Kind, ref.Busy, ref.Sync)
	if c.sampling {
		c.noteRef(c.vt, ref.Sync)
	}
	return c.tryRef(ref)
}

// sliceOver ends the run loop's turn after a retired reference. The thread
// may have retired further hits inside that reference's ReadDone, so the
// clock tested is the processor's, not the loop's: a spent slice
// reschedules the loop at the clock the thread reached.
func (c *CPU) sliceOver() bool {
	if c.vt >= c.limit {
		c.eng.At(c.vt, c.rerun)
		return true
	}
	return false
}

// Hit is step for a reference that hits, taken as its fields instead of a
// Ref, on the calling workload thread's own stack. It runs only while the
// run loop is live — parked inside the ReadDone that resumed this thread —
// and its slice is not spent; otherwise, or when the line has a miss
// outstanding or its state does not satisfy the reference, it refuses and
// the thread batches the reference for the loop. A reference it takes
// retires through exactly step's charge, noteRef and tryRef hit branch, so
// the processor cannot tell who drove it; Hit returns the value a read or
// RMW observes. On false nothing has changed but the line's recency, which
// the reference's own Lookup in tryRef sets identically.
func (c *CPU) Hit(kind arch.RefKind, op RMWOp, a arch.Addr, v uint64, busy uint32, sync bool) (uint64, bool) {
	if !c.live || c.vt >= c.limit {
		return 0, false
	}
	line := a.Line()
	if c.inUse != 0 && c.findMSHR(line) >= 0 || !hits(kind, c.Cache.Lookup(line)) {
		return 0, false
	}
	c.vt += c.charge(kind, busy, sync)
	if c.sampling {
		c.noteRef(c.vt, sync)
	}
	return c.access(kind, op, a, v), true
}

// hitDone releases the thread behind a read or RMW that hit in the cache,
// resuming it with the loop marked live. Paused prefixes (pauseAfter armed)
// never go live: their pause points are defined at batch boundaries.
func (c *CPU) hitDone() {
	c.live = c.pauseAfter == 0
	c.src.ReadDone()
	c.live = false
}

// noteRef records one retired reference for the sampling estimator: work
// (non-sync) references count against the fast-forward total or their
// detailed measurement window, by the virtual time they were charged at.
func (c *CPU) noteRef(vt sim.Cycle, sync bool) {
	if sync {
		return
	}
	t := uint64(vt)
	if !c.phaseDetailed(t) {
		c.Stats.FFWork++
		return
	}
	if t < c.spec.Warmup {
		return // warm-up prefix: detailed but unmeasured
	}
	w := c.spec.Window(t)
	for len(c.Stats.WinWork) <= w {
		c.Stats.WinWork = append(c.Stats.WinWork, 0)
	}
	c.Stats.WinWork[w]++
}

// nextRef takes the next reference from the current batch, refilling from
// the source when it runs dry. The steady-state path is a slice index — no
// handshake, no allocation, no copy: the reference is used in place.
func (c *CPU) nextRef() (*Ref, bool) {
	for c.batchPos >= len(c.batch) {
		b, ok := c.src.NextBatch()
		if !ok {
			c.batch = nil
			return nil, false
		}
		c.batch, c.batchPos = b, 0
	}
	r := &c.batch[c.batchPos]
	c.batchPos++
	return r, true
}

// charge converts a reference's busy instruction count to cycles and
// accounts them and the reference.
func (c *CPU) charge(kind arch.RefKind, busy uint32, sync bool) sim.Cycle {
	inst := busy + c.instFrac
	cyc := sim.Cycle(inst / 4)
	c.instFrac = inst % 4
	if sync {
		c.Stats.SyncStall += cyc
	} else {
		c.Stats.Busy += cyc
	}
	c.Stats.Refs++
	switch kind {
	case arch.RefRead:
		c.Stats.Reads++
	case arch.RefWrite:
		c.Stats.Writes++
	default:
		c.Stats.RMWs++
	}
	return cyc
}

// hits is the hit rule: a read needs any copy of its line, a write or RMW
// ownership.
func hits(kind arch.RefKind, st LineState) bool {
	if kind == arch.RefRead {
		return st != Invalid
	}
	return st == Modified
}

// tryRef attempts ref at the processor's virtual clock. It returns false if
// the processor blocked; only then is the reference retained (c.pending),
// so a hit never copies it. ref is not read after its thread is released:
// a batch-final reference's slot is the thread's to reuse from then on.
func (c *CPU) tryRef(ref *Ref) bool {
	vt := c.vt
	line := ref.Addr.Line()

	// An outstanding miss to the same line?
	if e := c.findMSHR(line); e >= 0 {
		ent := &c.mshrs[e]
		if ref.Kind == arch.RefWrite && ent.kind == arch.MsgGETX {
			// Merge the write into the outstanding exclusive miss: the value
			// queues behind the miss and applies at fill, in program order.
			ent.stores = append(ent.stores, pendingStore{addr: ref.Addr, val: ref.WVal})
			return true
		}
		// Reads (and RMWs, and writes behind a read miss) wait for the line.
		c.block(blockMiss, e, ref)
		return false
	}

	st := c.Cache.Lookup(line)
	if hits(ref.Kind, st) {
		v := c.access(ref.Kind, ref.RMW, ref.Addr, ref.WVal)
		if ref.Kind != arch.RefWrite {
			if ref.Out != nil {
				*ref.Out = v
			}
			c.hitDone()
		}
		return true
	}

	// Miss. Structural checks: one outstanding miss per cache set, and a
	// free MSHR.
	if c.inUse == len(c.mshrs) || c.setConflict(line) {
		c.block(blockStructural, -1, ref)
		return false
	}

	// Allocate and issue.
	e := c.allocMSHR()
	ent := &c.mshrs[e]
	stores := ent.stores[:0] // reuse the deferred-store buffer
	*ent = mshrEntry{valid: true, line: line, ref: *ref, issuedAt: vt}
	ent.stores = stores
	ent.kind = arch.MsgGETX
	if ref.Kind == arch.RefRead {
		ent.kind = arch.MsgGET
	}
	c.Stats.Misses++
	if ref.Kind == arch.RefRead {
		c.Stats.ReadMisses++
	}
	if st == Shared {
		c.Stats.UpgradeMisses++
	}
	// Non-blocking write: the store value queues on the MSHR and enters
	// the backing view at fill, in program order with any later writes
	// that merge into it. Applying at fill (ownership grant) rather than
	// issue keeps cross-node same-word writes in coherence order, which
	// the window-quantized store visibility requires. Queued before issue:
	// a fast-forward chain can complete the miss inside issue() itself.
	if ref.Kind == arch.RefWrite {
		ent.stores = append(ent.stores, pendingStore{addr: ref.Addr, val: ref.WVal})
	}
	c.issue(e, vt)

	if ref.Kind == arch.RefRead || ref.Kind == arch.RefRMW {
		if !ent.valid {
			// The fast-forward chain filled the line synchronously; Deliver
			// already applied the reference, charged the stall and caught
			// the virtual clock up to the fill.
			return true
		}
		c.block(blockMiss, e, ref)
		return false
	}
	return true
}

// issue sends the miss request across the processor bus to the controller.
// Fast-forward issues charge the uncontended constants without reserving
// the bus: no contention serialization, no occupancy accounting.
func (c *CPU) issue(e int, vt sim.Cycle) {
	ent := &c.mshrs[e]
	req := vt + sim.Cycle(c.t.MissDetect)
	m := arch.Msg{Type: ent.kind, Addr: arch.Addr(ent.line << arch.LineShift), Src: c.ID, Req: c.ID, Dst: c.ID, DB: -1}
	if !c.detailed(req) {
		ent.ffIssued = true
		// The controller runs the whole chain — including remote handlers —
		// before this call returns; issuing tells Deliver that tryRef is on
		// the stack inside issue(), so a completion needs no resume event.
		prev := c.issuing
		c.issuing = e + 1
		c.ctl.FromProcFF(m, req+sim.Cycle(c.t.BusTransit))
		c.issuing = prev
		return
	}
	ent.ffIssued = false
	start, end := c.Bus.Reserve(req, sim.Cycle(c.t.BusTransit))
	c.Stats.ContStall += start - req
	if c.Tr.Active() {
		if ent.tid == 0 {
			ent.tid = c.Tr.NewID()
		}
		c.Tr.Emit(trace.Event{
			Cycle: uint64(req), Node: int32(c.ID), Kind: trace.KindMissIssue,
			Addr: ent.line << arch.LineShift, ID: ent.tid,
			Arg: uint64(ent.retries), Name: ent.kind.String(),
		})
	}
	m.TID = ent.tid
	c.ctl.FromProc(m, end)
}

// Deliver completes an outstanding miss (PIData) or bounces it (NAK). The
// controller calls it when the message's first data word crosses the
// processor bus at time `at`. Aux bit 0 of a data reply marks data that was
// retrieved from a processor cache (dirty somewhere), bit 1 marks a remote
// source node that is not the home — together they classify the miss.
func (c *CPU) Deliver(m arch.Msg, at sim.Cycle) { c.deliver(m, at, false) }

// DeliverFF is the functional-chain delivery entry: the caller is a
// fast-forward handler running synchronously, so the completion must use
// fast-forward charging even when its nominal time lands inside a detailed
// window (the detailed machinery was never engaged for this miss leg).
func (c *CPU) DeliverFF(m arch.Msg, at sim.Cycle) { c.deliver(m, at, true) }

func (c *CPU) deliver(m arch.Msg, at sim.Cycle, ff bool) {
	line := m.Addr.Line()
	e := c.findMSHR(line)
	if e < 0 {
		panic(fmt.Sprintf("cpu%d: delivery for line %#x with no MSHR", c.ID, line))
	}
	ent := &c.mshrs[e]

	if m.Type == arch.MsgNAK {
		c.Stats.Naks++
		if c.Tr.Active() {
			c.Tr.Emit(trace.Event{
				Cycle: uint64(at), Node: int32(c.ID), Kind: trace.KindNak,
				Addr: line << arch.LineShift, ID: ent.tid, Parent: m.TID,
			})
		}
		// Retry after an exponential, node-jittered backoff; the entry
		// stays allocated.
		sh := min(ent.retries, 5)
		ent.retries++
		jitter := (uint64(c.ID)*13 + uint64(ent.retries)*7) % 23
		delay := sim.Cycle(c.t.NakBackoff)<<uint(sh) + sim.Cycle(jitter)
		c.eng.At(c.ffAt(at+delay), c.retry[e])
		return
	}

	// Fill the cache; stream the line across the bus. A fill marked
	// invalidate-on-fill satisfies its reference but leaves no residency.
	// Fast-forward fills (either end of the miss handled functionally)
	// skip the bus reservation and the latency histograms; the cache-state
	// transition and the miss census stay exact.
	ffFill := ff || ent.ffIssued || !c.detailed(at)
	fillAt := at
	if !ffFill {
		fillAt, _ = c.Bus.Reserve(at, sim.Cycle(c.t.BusLineBusy))
	}
	if !ent.invalOnFill {
		newState := Shared
		if ent.kind == arch.MsgGETX {
			newState = Modified
		}
		victim, vstate, evicted := c.Cache.Fill(line, newState)
		if evicted {
			c.evict(victim, vstate, fillAt, ffFill)
		}
		if c.Tr.Active() {
			c.Tr.Emit(trace.Event{
				Cycle: uint64(fillAt), Node: int32(c.ID), Kind: trace.KindFill,
				Addr: line << arch.LineShift, ID: ent.tid, Parent: m.TID,
				Arg: uint64(newState), Name: newState.String(),
			})
		}
	} else if c.Tr.Active() {
		c.Tr.Emit(trace.Event{
			Cycle: uint64(fillAt), Node: int32(c.ID), Kind: trace.KindFill,
			Addr: line << arch.LineShift, ID: ent.tid, Parent: m.TID,
			Name: "inval-on-fill",
		})
	}

	// Classify read misses per Table 4.1 and histogram the latency. The
	// class census is exact under sampling (classification depends on
	// protocol state, not timing); the latency histogram only sees misses
	// whose issue AND fill both ran detailed.
	if ent.ref.Kind == arch.RefRead {
		class := c.classify(m)
		c.Stats.MissClass[class]++
		if !ffFill {
			lat := max(fillAt, ent.issuedAt) - ent.issuedAt
			c.Stats.ReadLat[class].Observe(uint64(lat))
		}
	}
	if c.Tr.Active() {
		c.Tr.Emit(trace.Event{
			Cycle: uint64(fillAt), Node: int32(c.ID), Kind: trace.KindMissDone,
			Addr: line << arch.LineShift, ID: ent.tid, Parent: m.TID,
			Name: m.Type.String(),
		})
	}

	// Apply the triggering reference's data action and release its thread.
	// If the entry's own reference was a read or RMW, the processor was
	// blocked on exactly this reference, so completing it also consumes the
	// pending slot; a processor blocked on someone else's entry (a read
	// arriving behind an outstanding write miss) retries its reference.
	// A write's value is ent.stores[0], applied below.
	consumed := false
	if r := &ent.ref; r.Kind != arch.RefWrite {
		if v := c.access(r.Kind, r.RMW, r.Addr, r.WVal); r.Out != nil {
			*r.Out = v
		}
		c.src.ReadDone()
		consumed = true
	}
	// Apply the deferred stores (the triggering write plus merged writes),
	// in program order, after any triggering RMW read its old value.
	for _, ps := range ent.stores {
		c.mem.Store(uint64(ps.addr)/8, ps.val)
	}
	ent.stores = ent.stores[:0]

	waiting := c.blocked == blockMiss && c.blockEntry == e
	ent.valid = false
	c.inUse--
	if e+1 == c.issuing && !waiting && c.blocked == blockNone {
		// Synchronous fast-forward completion: tryRef is on the stack inside
		// issue(), so charge the miss stall against the reference, catch the
		// virtual clock up to the fill and return — tryRef sees the freed
		// entry and continues. The blocked check matters: issue() also runs
		// from NAK-retry events, where a structurally blocked processor
		// still needs the resume below (no tryRef on the stack there).
		if consumed && fillAt > c.vt {
			c.chargeStall(&ent.ref, fillAt-c.vt)
			c.vt = fillAt
		}
		return
	}
	if waiting {
		c.resume(fillAt, consumed)
	} else if c.blocked == blockStructural {
		c.resume(fillAt, false)
	}
}

// classify maps a completed read miss to the five classes of Table 4.1.
func (c *CPU) classify(m arch.Msg) arch.MissClass {
	local := c.cfg.HomeOf(m.Addr) == c.ID
	dirty := m.Aux&1 != 0
	third := m.Aux&2 != 0
	switch {
	case local && !dirty:
		return arch.MissLocalClean
	case local:
		return arch.MissLocalDirty
	case !dirty:
		return arch.MissRemoteClean
	case third:
		return arch.MissRemoteDirty3rd
	default:
		return arch.MissRemoteDirtyHome
	}
}

// resume restarts the processor after a miss completion if it was blocked.
// consumed reports that the pending reference itself was the completed miss.
func (c *CPU) resume(at sim.Cycle, consumed bool) {
	if c.blocked == blockNone || c.Stats.Finished {
		return
	}
	c.blocked = blockNone
	// A synchronous fast-forward chain can complete a miss with a nominal
	// fill time behind this shard's clock (the chain ran on another node's
	// clock); events must not be scheduled in the past.
	at = c.ffAt(at)
	// Charge the stall to the pending reference's category. A completion
	// can land before the blocked reference's virtual issue time (the
	// processor runs ahead of the clock within a chunk); that is a zero
	// stall, not an underflow.
	at = max(at, c.pendingAt)
	c.chargeStall(&c.pending, at-c.pendingAt)
	c.pendingAt = at
	if consumed {
		c.hasPending = false
	}
	c.eng.At(at, c.rerun)
}

// ffAt clamps an event time to the engine clock. Only meaningful under
// sampling (and the identity otherwise): synchronous fast-forward chains
// compute nominal times on the initiating node's clock, which can lie
// behind this node's shard clock on the sharded engine.
func (c *CPU) ffAt(at sim.Cycle) sim.Cycle {
	if c.sampling {
		if n := c.eng.Now(); at < n {
			return n
		}
	}
	return at
}

// block parks the processor on ref until resume(): the reference is
// retained here and nowhere earlier.
func (c *CPU) block(r blockReason, entry int, ref *Ref) {
	c.blocked = r
	c.blockEntry = entry
	c.pending, c.hasPending, c.pendingAt = *ref, true, c.vt
}

// chargeStall attributes stall cycles to ref's category.
func (c *CPU) chargeStall(ref *Ref, stall sim.Cycle) {
	switch {
	case ref.Sync:
		c.Stats.SyncStall += stall
	case ref.Kind == arch.RefRead:
		c.Stats.ReadStall += stall
	default:
		c.Stats.WriteStall += stall
	}
}

// evict disposes of a victim line: Modified lines are written back, Shared
// lines produce a replacement hint. ff selects functional charging — set
// when the fill that triggered the eviction was itself functional, so the
// chain never re-enters the detailed machinery mid-flight.
func (c *CPU) evict(line uint64, st LineState, at sim.Cycle, ff bool) {
	addr := arch.Addr(line << arch.LineShift)
	if c.Tr.Active() {
		c.Tr.Emit(trace.Event{
			Cycle: uint64(at), Node: int32(c.ID), Kind: trace.KindEvict,
			Addr: uint64(addr), Name: st.String(),
		})
	}
	if st == Modified {
		c.Stats.Writebacks++
		msg := arch.Msg{Type: arch.MsgWB, Addr: addr, Src: c.ID, Req: c.ID, Dst: c.ID, DB: -1}
		if ff {
			c.ctl.FromProcFF(msg, at+sim.Cycle(c.t.BusLineBusy))
			return
		}
		_, end := c.Bus.Reserve(at, sim.Cycle(c.t.BusLineBusy))
		c.ctl.FromProc(msg, end)
		return
	}
	c.Stats.Hints++
	msg := arch.Msg{Type: arch.MsgRPL, Addr: addr, Src: c.ID, Req: c.ID, Dst: c.ID, DB: -1}
	if ff {
		c.ctl.FromProcFF(msg, at+sim.Cycle(c.t.BusTransit))
		return
	}
	_, end := c.Bus.Reserve(at, sim.Cycle(c.t.BusTransit))
	c.ctl.FromProc(msg, end)
}

// InterveneFF is the fast-forward counterpart of Intervene: the cache-state
// transition applies immediately and the response kind returns
// synchronously, with no bus reservation and no charge. MAGIC's functional
// handler path calls it mid-handler, so the protocol sees exactly the same
// state transitions as the detailed path in zero time.
func (c *CPU) InterveneFF(kind arch.MsgType, addr arch.Addr) arch.MsgType {
	_, resp := c.snoop(kind, addr.Line())
	return resp
}

// snoop is the cache-state transition of a controller-initiated
// transaction, shared by Intervene and InterveneFF. An invalidation racing
// this node's outstanding read miss marks it invalidate-on-fill. Anything
// but a Modified line (and any invalidation) answers clean: a downgrade
// leaves the line as it was, the rest invalidate it. A Modified line
// answers with its data and ends Invalid (flush) or Shared (downgrade).
// prior is the line's state before the transition.
func (c *CPU) snoop(kind arch.MsgType, line uint64) (prior LineState, resp arch.MsgType) {
	if kind == arch.MsgPIInval {
		if e := c.findMSHR(line); e >= 0 && c.mshrs[e].kind == arch.MsgGET {
			c.mshrs[e].invalOnFill = true
		}
	}
	prior = c.Cache.Lookup(line)
	if kind == arch.MsgPIInval || prior != Modified {
		if kind != arch.MsgPIDowngr {
			c.Cache.SetState(line, Invalid)
		}
		return prior, arch.MsgPCClean
	}
	if kind == arch.MsgPIFlush {
		c.Cache.SetState(line, Invalid)
	} else {
		c.Cache.SetState(line, Shared)
	}
	return prior, arch.MsgPCData
}

// InterventionDone is Intervene's completion callback.
type InterventionDone func(req arch.Msg, resp arch.MsgType, firstData sim.Cycle)

// Intervene performs a controller-initiated cache transaction: an
// invalidation (PIInval), a downgrade retrieving dirty data (PIDowngr), or
// a flush retrieving data and invalidating (PIFlush). done is called with
// req (the request the controller is serving, handed back so the callback
// need not capture it), the response type and, for data responses, the time
// the first double word is available; a nil done still costs the completion
// event, so event counts do not depend on whether the controller listens.
func (c *CPU) Intervene(kind arch.MsgType, addr arch.Addr, at sim.Cycle, req arch.Msg, done InterventionDone) {
	st, resp := c.snoop(kind, addr.Line())
	if c.Tr.Active() {
		c.Tr.Emit(trace.Event{
			Cycle: uint64(c.eng.Now()), Node: int32(c.ID), Kind: trace.KindIntervene,
			Addr: uint64(addr), Arg: uint64(st), Name: kind.String(),
		})
	}
	if resp == arch.MsgPCClean {
		// State-only transaction: 15 cycles to probe/invalidate.
		_, end := c.Bus.Reserve(at, sim.Cycle(c.t.PCacheState))
		c.complete(end, resp, req, done)
		return
	}
	// Retrieve dirty data: 20 cycles to the first double word, then the
	// line streams over the bus. The requester proceeds critical-word-first
	// while the rest of the line streams.
	dur := sim.Cycle(c.t.PCacheData) + sim.Cycle(c.t.BusLineBusy)
	start, _ := c.Bus.Reserve(at, dur)
	c.complete(start+sim.Cycle(c.t.PCacheData), resp, req, done)
}

// intervention is the completion event of one Intervene: a pooled record
// (several can be in flight — invalidations are fire-and-forget) whose bound
// fire is what the engine runs, at the cycle the response is available.
type intervention struct {
	c    *CPU
	done InterventionDone
	req  arch.Msg
	resp arch.MsgType
	fire func()
	next *intervention
}

func (iv *intervention) run() {
	c, done := iv.c, iv.done
	iv.done, iv.next, c.ivFree = nil, c.ivFree, iv
	if done != nil {
		done(iv.req, iv.resp, c.eng.Now())
	}
}

// complete schedules done(req, resp, at) at cycle at.
func (c *CPU) complete(at sim.Cycle, resp arch.MsgType, req arch.Msg, done InterventionDone) {
	iv := c.ivFree
	if iv == nil {
		iv = &intervention{c: c}
		iv.fire = iv.run
	} else {
		c.ivFree = iv.next
	}
	iv.done, iv.req, iv.resp = done, req, resp
	c.eng.At(at, iv.fire)
}

// --- backing-store access (run loop or, while it is live, its thread) ---

// access applies a reference's data action to the node's view and returns
// the value a read or RMW observes.
func (c *CPU) access(kind arch.RefKind, op RMWOp, a arch.Addr, v uint64) uint64 {
	i := uint64(a) / 8
	if kind == arch.RefWrite {
		c.mem.Store(i, v)
		return 0
	}
	old := c.mem.Load(i)
	if kind == arch.RefRMW {
		if op == RMWAdd {
			v += old
		}
		c.mem.Store(i, v)
	}
	return old
}

// --- MSHR helpers ---

func (c *CPU) findMSHR(line uint64) int {
	if c.inUse == 0 {
		return -1 // the common case: no miss outstanding, skip the scan
	}
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].line == line {
			return i
		}
	}
	return -1
}

func (c *CPU) setConflict(line uint64) bool {
	if c.inUse == 0 {
		return false
	}
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.Cache.SameSet(c.mshrs[i].line, line) {
			return true
		}
	}
	return false
}

func (c *CPU) allocMSHR() int {
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			c.inUse++
			return i
		}
	}
	panic("cpu: allocMSHR with none free")
}

// --- snapshot pause / capture / restore ---

// PauseAfter arms (nonzero) or disarms (zero) the snapshot pause: the run
// loop parks at the first batch-refill boundary at or after retiring k
// references. Threads that finish before k finish normally.
func (c *CPU) PauseAfter(k uint64) { c.pauseAfter = k }

// Paused reports whether the run loop is parked at a pause point.
func (c *CPU) Paused() bool { return c.paused }

// CPUState is a captured processor: its procState and its cache's state.
// The zero CPUState is a freshly constructed processor.
type CPUState struct {
	procState
	cache CacheState
}

// CaptureState snapshots a quiesced processor: parked at a pause point (or
// finished) with nothing in flight. Anything else is an error naming the
// processor, the cycle and its in-flight state.
func (c *CPU) CaptureState() (CPUState, error) {
	if !c.paused && !c.Stats.Finished || !c.quiet() {
		return CPUState{}, fmt.Errorf("cpu%d: not quiescent at cycle %d: %s", c.ID, c.eng.Now(), c.DebugState())
	}
	st := CPUState{c.procState, c.Cache.CaptureState()}
	st.Stats.WinWork = slices.Clone(c.Stats.WinWork)
	return st, nil
}

// RestoreState installs a captured processor state into a CPU of the same
// configuration, leaving it parked exactly as the donor was, with nothing in
// flight and no reference source attached.
func (c *CPU) RestoreState(st CPUState) {
	c.procState = st.procState
	c.Stats.WinWork = slices.Clone(st.Stats.WinWork)
	c.Cache.RestoreState(st.cache)
	c.flight = flight{mshrs: make([]mshrEntry, len(c.mshrs))}
}

// DebugState renders the processor's finish and pause state and every
// in-flight field, for hang diagnosis.
func (c *CPU) DebugState() string {
	var mshrs []string
	for i := range c.mshrs {
		if e := &c.mshrs[i]; e.valid {
			mshrs = append(mshrs, fmt.Sprintf("%d={line=%#x kind=%v retries=%d ffIssued=%v invalOnFill=%v issuedAt=%d stores=%d}",
				i, e.line, e.kind, e.retries, e.ffIssued, e.invalOnFill, e.issuedAt, len(e.stores)))
		}
	}
	return fmt.Sprintf("done=%v paused=%v vt=%d limit=%d live=%v inUse=%d src=%v batchPos=%d batch=%d blocked=%v blockEntry=%d hasPending=%v pendingAt=%d pending={%v %#x sync=%v} issuing=%d phaseDet=%v phaseEnd=%d pauseAfter=%d mshrs=%v",
		c.Stats.Finished, c.paused, c.vt, c.limit, c.live, c.inUse, c.src != nil, c.batchPos, len(c.batch), c.blocked, c.blockEntry,
		c.hasPending, c.pendingAt, c.pending.Kind, c.pending.Addr, c.pending.Sync, c.issuing, c.phaseDet, c.phaseEnd, c.pauseAfter, mshrs)
}
