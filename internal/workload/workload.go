// Package workload is the execution-driven front end of the simulator — the
// role Tango Lite played for FlashLite in the paper. Application threads
// run as coroutines, issue memory references through a per-processor
// context, and are resumed in simulated-time order, so data values flow
// through the machine in the order the simulated memory system completes
// them. Synchronization primitives are built on simulated memory (test-and-
// test&set locks, sense-reversing barriers), so lock and barrier traffic
// generates real coherence messages and real hot-spotting.
//
// Contract: application threads must never block on Go-level constructs
// that depend on another simulated thread's progress; all inter-thread
// communication goes through simulated memory.
package workload

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
	"flashsim/internal/sim"
)

// World wraps a machine with an address-space allocator and thread support.
type World struct {
	M   *core.Machine
	Cfg *arch.Config

	bump   []arch.Addr // per-node page-aligned bump pointer
	rrNext int

	// panicked is the run's earliest thread panic (nil if none), recorded
	// by the panicking thread's shard under panicMu.
	panicMu  sync.Mutex
	panicked *threadPanic
}

// threadPanic is the error a run returns when an application thread
// panics: the thread is recovered, the machine stopped, and the panic
// reported with the cycle it happened at and its stack.
type threadPanic struct {
	thread int
	cycle  sim.Cycle
	value  any
	stack  []byte
}

func (p *threadPanic) Error() string {
	return fmt.Sprintf("workload: thread %d (node %d) panicked at cycle %d: %v\n%s",
		p.thread, p.thread, p.cycle, p.value, p.stack)
}

// recordPanic keeps the earliest panic of a run, by (cycle, thread), so the
// report does not depend on which shard got there first.
func (w *World) recordPanic(p *threadPanic) {
	w.panicMu.Lock()
	defer w.panicMu.Unlock()
	if q := w.panicked; q == nil || p.cycle < q.cycle || p.cycle == q.cycle && p.thread < q.thread {
		w.panicked = p
	}
}

// NewWorld creates the workload environment for a machine.
func NewWorld(m *core.Machine) *World {
	w := &World{M: m, Cfg: &m.Cfg}
	w.bump = make([]arch.Addr, m.Cfg.Nodes)
	for i := range w.bump {
		// Skew each node's allocation origin by its id (page coloring):
		// the node-memory stride is a multiple of the cache way size, so
		// without the skew, page k of a round-robin array lands in the same
		// cache sets on every node and interleaved arrays thrash a handful
		// of sets.
		w.bump[i] = m.Cfg.NodeBase(arch.NodeID(i)) + arch.Addr(i)*arch.PageSize
	}
	return w
}

// AllocOnNode reserves bytes of memory homed at node n, page-aligned.
func (w *World) AllocOnNode(bytes int, n arch.NodeID) arch.Addr {
	a := w.bump[n]
	pages := (bytes + arch.PageSize - 1) / arch.PageSize
	w.bump[n] += arch.Addr(pages * arch.PageSize)
	if w.bump[n] > w.Cfg.NodeBase(n)+arch.Addr(w.Cfg.MemBytesPerNode) {
		panic(fmt.Sprintf("workload: node %d out of memory", n))
	}
	return a
}

// Alloc reserves bytes under the machine's placement policy. Under
// round-robin (and, for lack of touch information, first-touch) pages
// rotate across nodes; under node-zero everything lands on node 0.
// Contiguity is per page: the returned region is virtually contiguous only
// when it fits in one page or the policy keeps it on one node, so callers
// that index across page boundaries should use AllocStriped or per-node
// allocation. For simplicity Alloc allocates whole pages per node in
// rotation and returns the address of a contiguous region on ONE node when
// bytes <= PageSize.
func (w *World) Alloc(bytes int) arch.Addr {
	switch w.Cfg.Placement {
	case arch.PlaceNodeZero:
		return w.AllocOnNode(bytes, 0)
	default:
		n := arch.NodeID(w.rrNext % w.Cfg.Nodes)
		w.rrNext++
		return w.AllocOnNode(bytes, n)
	}
}

// AllocPlaced reserves bytes with a preferred home, honoring the machine's
// placement policy: under first-touch (partitioned codes touch their own
// data first) the preferred node wins; round-robin ignores the preference;
// node-zero concentrates everything.
func (w *World) AllocPlaced(bytes int, preferred arch.NodeID) arch.Addr {
	switch w.Cfg.Placement {
	case arch.PlaceFirstTouch:
		return w.AllocOnNode(bytes, preferred%arch.NodeID(w.Cfg.Nodes))
	case arch.PlaceNodeZero:
		return w.AllocOnNode(bytes, 0)
	default:
		return w.Alloc(bytes)
	}
}

// Array is a distributed array of 8-byte elements: a sequence of page
// extents, each holding ElemsPerPage elements homed on one node, indexed
// globally. It gives workloads contiguous logical indexing over physically
// distributed pages.
type Array struct {
	pages []arch.Addr // base of each extent's ElemsPerPage elements
	n     int
}

const (
	// ElemsPerPage is the number of 8-byte elements in one placement page.
	ElemsPerPage = arch.PageSize / 8
	elemShift    = arch.PageShift - 3
)

// NewArray builds a distributed array of n 8-byte elements, placed
// page-by-page per the machine's policy: round-robin rotates pages across
// nodes, node-zero concentrates them, and "first-touch" without touch
// information behaves like round-robin (partitioned workloads use
// NewArrayBlocked for explicit good placement instead).
func (w *World) NewArray(n int) *Array {
	a := &Array{n: n}
	for off := 0; off < n; off += ElemsPerPage {
		a.pages = append(a.pages, w.Alloc(arch.PageSize))
	}
	return a
}

// NewArrayBlocked builds a distributed array of n elements split into
// `parts` contiguous blocks, block i homed on node i%Nodes — the layout a
// NUMA-aware application (or a first-touch policy under a partitioned
// access pattern) produces. Element i lives in extent i/ElemsPerPage, so
// the placement follows the blocks only when a block is a whole number of
// pages: otherwise later blocks' elements fill earlier blocks' last pages.
func (w *World) NewArrayBlocked(n, parts int) *Array {
	if parts <= 0 {
		parts = w.Cfg.Nodes
	}
	a := &Array{n: n}
	per := (n + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo := p * per
		hi := min(lo+per, n)
		if lo >= hi {
			break
		}
		node := arch.NodeID(p % w.Cfg.Nodes)
		if w.Cfg.Placement == arch.PlaceNodeZero {
			node = 0
		}
		base := w.AllocOnNode((hi-lo)*8, node)
		for off := lo; off < hi; off += ElemsPerPage {
			a.pages = append(a.pages, base)
			base += arch.PageSize
		}
	}
	return a
}

// SingleExtent wraps one contiguous region of n 8-byte elements as an
// Array (for explicitly placed structures like LU blocks).
func SingleExtent(base arch.Addr, n int) *Array {
	a := &Array{n: n}
	for off := 0; off < n; off += ElemsPerPage {
		a.pages = append(a.pages, base+arch.Addr(off*8))
	}
	return a
}

// Addr returns the physical address of element i, which must lie in
// [0, Len()).
func (a *Array) Addr(i int) arch.Addr {
	if uint(i) >= uint(a.n) {
		panic(indexError{i, a.n})
	}
	return a.pages[i>>elemShift] + arch.Addr(i&(ElemsPerPage-1))*8
}

// indexError is the panic of an Array index outside [0, n): a value that
// formats itself only when printed, which keeps Addr inlinable.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("workload: index %d out of range [0,%d)", e.i, e.n)
}

// Len returns the element count.
func (a *Array) Len() int { return a.n }

// --- thread contexts ---

// Ctx is a simulated thread's interface to its processor. All methods must
// be called from the thread's own coroutine (the fn passed to Run).
type Ctx struct {
	W  *World
	ID int

	yield  func([]cpu.Ref) bool // hands a batch to the CPU, parks until resumed
	batch  []cpu.Ref            // references issued but not yet handed to the CPU
	cpu    *cpu.CPU             // the thread's processor, for thread-side hits
	out    uint64
	busy   uint32
	senses map[*Barrier]uint64
	prng   uint64
}

// maxBatch bounds how many non-blocking references a thread buffers before
// flushing to its processor, so a long write-only loop neither grows memory
// without bound nor starves the simulation goroutine's batch refill.
const maxBatch = 256

// Busy charges n processor instructions of compute time before the next
// reference (4 instructions per system cycle).
func (c *Ctx) Busy(n int) { c.busy += uint32(n) }

// issue appends the thread's next reference to the pending batch, which
// crosses the workload⇄cpu boundary once, at the next blocking reference
// (or at capacity/exit), and runs on the processor's own loop. Once anything
// is batched everything behind it is too: program order.
func (c *Ctx) issue(r cpu.Ref) {
	r.Busy = c.busy + 1 // every reference is at least one instruction
	c.busy = 0
	c.batch = append(c.batch, r)
	if len(c.batch) >= maxBatch {
		c.flush()
	}
}

// flush hands the pending batch to the CPU and parks the thread until the
// simulation wants more references. The CPU has consumed every element by
// the time yield returns (batches are only refilled once exhausted, and a
// blocking reference is always batch-final), so the slice is reused in
// place.
func (c *Ctx) flush() {
	c.yield(c.batch)
	c.batch = c.batch[:0]
}

// wait issues a blocking reference (a read or RMW, r.Out = &c.out) and
// returns the value the simulated machine completed it with: r rides at the
// end of the pending batch and the CPU resumes the coroutine only after r's
// done handshake fires.
func (c *Ctx) wait(r cpu.Ref) uint64 {
	c.issue(r)
	if len(c.batch) > 0 {
		c.flush()
	}
	return c.out
}

// ref performs one reference and returns the value a read or RMW observes.
// A cache hit the processor can retire right now runs as one call on the
// thread's stack (cpu.Hit), with no Ref built; only an empty batch may try
// it, since a batched reference ahead has not executed yet. Anything else
// is batched for the processor's loop, blocking reads and RMWs until they
// complete.
func (c *Ctx) ref(kind arch.RefKind, op cpu.RMWOp, a arch.Addr, v uint64, sync bool) uint64 {
	if len(c.batch) == 0 {
		if old, ok := c.cpu.Hit(kind, op, a, v, c.busy+1, sync); ok {
			c.busy = 0
			return old
		}
	}
	r := cpu.Ref{Kind: kind, RMW: op, Addr: a, WVal: v, Sync: sync}
	if kind == arch.RefWrite {
		c.issue(r)
		return 0
	}
	r.Out = &c.out
	return c.wait(r)
}

// ReadU loads the 8-byte word at a.
func (c *Ctx) ReadU(a arch.Addr) uint64 { return c.ref(arch.RefRead, 0, a, 0, false) }

// WriteU stores v at a (non-blocking in the simulated machine).
func (c *Ctx) WriteU(a arch.Addr, v uint64) { c.ref(arch.RefWrite, 0, a, v, false) }

// ReadF and WriteF move float64 values.
func (c *Ctx) ReadF(a arch.Addr) float64     { return math.Float64frombits(c.ReadU(a)) }
func (c *Ctx) WriteF(a arch.Addr, v float64) { c.WriteU(a, math.Float64bits(v)) }

// readSync is a spin-loop read, attributed to synchronization time.
func (c *Ctx) readSync(a arch.Addr) uint64 { return c.ref(arch.RefRead, 0, a, 0, true) }

func (c *Ctx) writeSync(a arch.Addr, v uint64) { c.ref(arch.RefWrite, 0, a, v, true) }

// Swap atomically exchanges v into a, returning the old value.
func (c *Ctx) Swap(a arch.Addr, v uint64) uint64 { return c.ref(arch.RefRMW, cpu.RMWSwap, a, v, true) }

// FetchAdd atomically adds v to a, returning the old value. It is part of
// the synchronization library (stall time charged to Sync).
func (c *Ctx) FetchAdd(a arch.Addr, v uint64) uint64 {
	return c.ref(arch.RefRMW, cpu.RMWAdd, a, v, true)
}

// FetchAddData is an atomic add on application data (stall time charged as
// an ordinary write): the shared-counter updates of codes like MP3D.
func (c *Ctx) FetchAddData(a arch.Addr, v uint64) uint64 {
	return c.ref(arch.RefRMW, cpu.RMWAdd, a, v, false)
}

// Rand returns a deterministic per-thread pseudo-random uint64 (xorshift);
// workloads must not use math/rand global state so runs stay reproducible.
func (c *Ctx) Rand() uint64 {
	c.prng ^= c.prng << 13
	c.prng ^= c.prng >> 7
	c.prng ^= c.prng << 17
	return c.prng
}

// threadSource adapts a Ctx coroutine to cpu.RefSource. Each next() resumes
// the thread until its next yield, by direct coroutine switch — no
// scheduler round trip, no cross-processor wakeup. ReadDone (the completion
// of a blocking reference) resumes the thread immediately; the batch it
// yields is held pending for the NextBatch call that follows.
type threadSource struct {
	next       func() ([]cpu.Ref, bool)
	pending    []cpu.Ref
	pendingOK  bool
	hasPending bool
}

func (s *threadSource) NextBatch() ([]cpu.Ref, bool) {
	if s.hasPending {
		b, ok := s.pending, s.pendingOK
		s.pending, s.hasPending = nil, false
		return b, ok
	}
	return s.next()
}

func (s *threadSource) ReadDone() {
	s.pending, s.pendingOK = s.next()
	s.hasPending = true
}

// threadSeed is the per-thread xorshift PRNG seed, so Rand streams
// reproduce from run to run.
func threadSeed(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 + 0x1234567 }

// threads builds one Ctx and its coroutine source per processor, each
// running fn. A thread that panics is recovered on its own coroutine — on
// the sharded engine that is a shard goroutine no caller could recover —
// ends its stream, and stops the machine through its scheduler.
func (w *World) threads(fn func(*Ctx)) []cpu.RefSource {
	srcs := make([]cpu.RefSource, w.Cfg.Nodes)
	for i := range srcs {
		c := &Ctx{
			W: w, ID: i,
			cpu:    w.M.Nodes[i].CPU,
			senses: make(map[*Barrier]uint64),
			prng:   threadSeed(i),
		}
		next, _ := iter.Pull(func(yield func([]cpu.Ref) bool) {
			c.yield = yield
			defer func() {
				if r := recover(); r != nil {
					sched := w.M.Eng.Node(c.ID)
					w.recordPanic(&threadPanic{thread: c.ID, cycle: sched.Now(), value: r, stack: debug.Stack()})
					sched.Stop()
					return
				}
				// Trailing non-blocking references still ride to the CPU
				// before the stream ends.
				if len(c.batch) > 0 {
					yield(c.batch)
				}
			}()
			fn(c)
		})
		srcs[i] = &threadSource{next: next}
	}
	return srcs
}

// Run runs one coroutine per processor executing fn(ctx) and runs the
// machine to completion. limit bounds simulated cycles (0 = none).
//
// Threads used to be goroutines parked on a pair of unbuffered channels;
// at simulation scale the park/unpark scheduler traffic cost more host time
// than the simulation itself. iter.Pull's coroutine switch transfers
// control directly, and the simulated behavior is identical either way:
// resume order is decided by simulated time, never by the host scheduler.
func (w *World) Run(fn func(*Ctx), limit uint64) error {
	// A deadlocked or over-limit machine leaves thread coroutines parked in
	// their yield; they are abandoned (the error is fatal to the simulation
	// anyway). On success every source was drained, so every fn returned.
	// A thread panic takes precedence over the deadlock error the stopped
	// machine reports.
	w.panicked = nil
	err := w.M.Run(w.threads(fn), sim.Cycle(limit))
	if w.panicked != nil {
		return w.panicked
	}
	return err
}

// Prefix is a run RunPrefix paused. It holds nothing: the paused state is
// the machine's, and the parked threads are never resumed.
type Prefix struct{}

// RunPrefix runs fn on every processor until each has retired pauseRefs
// references and paused at its next batch-refill boundary, with all
// outstanding traffic drained: a quiescent machine that Machine.Snapshot can
// capture. limit bounds simulated cycles (0 = none).
func (w *World) RunPrefix(fn func(*Ctx), pauseRefs, limit uint64) (*Prefix, error) {
	if pauseRefs == 0 {
		return nil, fmt.Errorf("workload: RunPrefix needs a positive pause point")
	}
	w.M.PauseAfterRefs(pauseRefs)
	if err := w.Run(fn, limit); err != nil {
		return nil, err
	}
	return &Prefix{}, nil
}
