package arch

import (
	"fmt"
	"strings"
)

// Placement selects how physical pages are distributed across node memories.
type Placement uint8

const (
	// PlaceRoundRobin interleaves pages across nodes (the paper's default
	// for the OS workload and the NUMA-friendly baseline).
	PlaceRoundRobin Placement = iota
	// PlaceFirstTouch assigns a page to the first node that touches it
	// (approximates good data placement for partitioned scientific codes).
	PlaceFirstTouch
	// PlaceNodeZero puts every page on node 0 (the Section 4.3 hot-spot
	// experiments and the "original IRIX port" behaviour).
	PlaceNodeZero
)

func (p Placement) String() string {
	switch p {
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceFirstTouch:
		return "first-touch"
	default:
		return "node-zero"
	}
}

// MachineKind selects the node controller implementation.
type MachineKind uint8

const (
	// KindFLASH uses MAGIC with the programmable protocol processor.
	KindFLASH MachineKind = iota
	// KindIdeal uses the idealized hardwired controller: all protocol
	// operations take zero time, queues are infinite.
	KindIdeal
)

func (k MachineKind) String() string {
	if k == KindFLASH {
		return "FLASH"
	}
	return "ideal"
}

// MarshalJSON renders the kind as its name so machine-readable reports stay
// stable if the constant values are ever reordered.
func (k MachineKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts a kind name (or a legacy numeric value).
func (k *MachineKind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"FLASH"`:
		*k = KindFLASH
	case `"ideal"`:
		*k = KindIdeal
	default:
		var v uint8
		if _, err := fmt.Sscanf(string(b), "%d", &v); err != nil {
			return fmt.Errorf("arch: unknown machine kind %s", b)
		}
		*k = MachineKind(v)
	}
	return nil
}

// PPMode selects how the protocol handlers are scheduled/compiled, for the
// Section 5.3 ablations.
type PPMode uint8

const (
	// PPDualIssue is the real MAGIC PP: special instructions enabled,
	// statically scheduled dual-issue.
	PPDualIssue PPMode = iota
	// PPSingleIssue disables dual issue but keeps the special instructions.
	PPSingleIssue
	// PPNoSpecial expands special instructions into DLX substitution
	// sequences (Table 5.3) and schedules single-issue — the "non-optimized
	// PP" of Section 5.3.
	PPNoSpecial
)

func (m PPMode) String() string {
	switch m {
	case PPDualIssue:
		return "dual-issue"
	case PPSingleIssue:
		return "single-issue"
	default:
		return "single-issue+DLX-substitution"
	}
}

// ParsePPMode parses a -ppmode (flashsim) or -mode (ppasm) flag value:
// dual, single or dlx.
func ParsePPMode(s string) (PPMode, error) {
	switch s {
	case "dual":
		return PPDualIssue, nil
	case "single":
		return PPSingleIssue, nil
	case "dlx":
		return PPNoSpecial, nil
	}
	return PPDualIssue, fmt.Errorf("arch: unknown PP mode %q (want dual, single or dlx)", s)
}

// PPDispatch selects the PP emulator's execution engine. Both engines are
// bit-identical in simulated behaviour; the choice only affects host-side
// simulation speed (ppsim compile.go documents the equivalence argument).
type PPDispatch uint8

const (
	// PPDispatchCompiled selects the predecoded closure backend (the
	// default).
	PPDispatchCompiled PPDispatch = iota
	// PPDispatchInterp selects the reference switch interpreter.
	PPDispatchInterp
)

func (d PPDispatch) String() string {
	if d == PPDispatchInterp {
		return "interp"
	}
	return "compiled"
}

// ParsePPDispatch parses a -pp-dispatch flag value.
func ParsePPDispatch(s string) (PPDispatch, error) {
	return parseEnum("pp-dispatch", s, PPDispatchCompiled, PPDispatchInterp)
}

// EngineKind selects the discrete-event engine backend. Both engines are
// bit-identical in simulated behaviour; the choice only affects host-side
// simulation speed (sim/sharded.go documents the lookahead argument).
type EngineKind uint8

const (
	// EngineSeq selects the sequential reference engine (the default).
	EngineSeq EngineKind = iota
	// EngineSharded selects the conservative parallel per-node-shard engine.
	EngineSharded
)

func (e EngineKind) String() string {
	if e == EngineSharded {
		return "sharded"
	}
	return "seq"
}

// ParseEngineKind parses an -engine flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	return parseEnum("engine", s, EngineSeq, EngineSharded)
}

// EngineSync selects how the sharded engine's shards synchronize. Both
// schemes are bit-identical in simulated behaviour; the choice only affects
// host-side simulation speed (sim/watermark.go documents the protocol).
type EngineSync uint8

const (
	// EngineSyncBarrier selects the uniform-window full-barrier scheme (the
	// default).
	EngineSyncBarrier EngineSync = iota
	// EngineSyncWatermark selects the watermark scheme: shards run
	// cooperative bursts up to the earliest cycle a peer's pending event
	// could reach them, with the machine's window as the one lookahead.
	EngineSyncWatermark
)

func (s EngineSync) String() string {
	if s == EngineSyncWatermark {
		return "watermark"
	}
	return "barrier"
}

// ParseEngineSync parses an -engine-sync flag value.
func ParseEngineSync(s string) (EngineSync, error) {
	return parseEnum("engine-sync", s, EngineSyncBarrier, EngineSyncWatermark)
}

// NetModel selects the interconnect latency model.
type NetModel uint8

const (
	// NetUniform charges the paper's fixed average transit (Section 3's 22
	// cycles at 16 nodes) to every message — the reference model all goldens
	// pin.
	NetUniform NetModel = iota
	// NetMesh charges per-pair 2-D mesh transit (enter + Manhattan hops +
	// exit at 4 cycles/hop, plus 3 header cycles). An INTENTIONAL MODEL
	// CHANGE relative to the uniform goldens: nearby nodes get faster
	// messages, far-apart ones slower. It is a timing model only: the
	// lookahead window and store quantum are the closest pair's transit.
	NetMesh
)

func (m NetModel) String() string {
	if m == NetMesh {
		return "mesh"
	}
	return "uniform"
}

// ParseNetModel parses a -net flag value.
func ParseNetModel(s string) (NetModel, error) {
	return parseEnum("net model", s, NetUniform, NetMesh)
}

// parseEnum returns the value among vals that String renders as s; the
// error for anything else names the accepted set.
func parseEnum[T fmt.Stringer](what, s string, vals ...T) (T, error) {
	names := make([]string, len(vals))
	for i, v := range vals {
		if v.String() == s {
			return v, nil
		}
		names[i] = v.String()
	}
	var zero T
	return zero, fmt.Errorf("arch: unknown %s %q (want %s)", what, s, strings.Join(names, " or "))
}

// Protocol selects which coherence protocol program MAGIC runs — the
// machine's flexibility in action.
type Protocol uint8

const (
	// ProtoDynPtr is the FLASH prototype's dynamic pointer allocation
	// directory (Section 3.3 of the paper).
	ProtoDynPtr Protocol = iota
	// ProtoBitVector is a DASH-style full bit-vector directory: an
	// alternative handler program for the same machine (up to 32 nodes).
	ProtoBitVector
)

func (p Protocol) String() string {
	if p == ProtoBitVector {
		return "bit-vector"
	}
	return "dynamic-pointer-allocation"
}

// ParseProtocol parses a -protocol flag value: dynptr or bitvec.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "dynptr":
		return ProtoDynPtr, nil
	case "bitvec":
		return ProtoBitVector, nil
	}
	return ProtoDynPtr, fmt.Errorf("arch: unknown protocol %q (want dynptr or bitvec)", s)
}

// Config describes one simulated machine.
type Config struct {
	Kind  MachineKind
	Nodes int // number of processors/nodes (16 for most experiments)

	// Processor cache geometry.
	CacheSize int // bytes (paper: 1 MB, 64 KB, 16 KB, 4 KB)
	CacheWays int // associativity (paper: 2)
	MSHRs     int // outstanding misses (paper: 4)

	// Memory placement for application pages.
	Placement Placement

	// MAGIC knobs.
	Speculation bool     // inbox-initiated speculative memory reads (Table 5.1)
	PPMode      PPMode   // Section 5.3 ablations
	Protocol    Protocol // coherence protocol program (FLASH machines)
	MDCSize     int      // MAGIC data cache bytes (paper: 64 KB)
	MDCWays     int      // MDC associativity (paper: 2)

	// PPDispatch selects the host-side PP execution engine (simulation
	// speed only; simulated results are bit-identical across engines).
	PPDispatch PPDispatch

	// Engine selects the host-side discrete-event backend (simulation
	// speed only; simulated results are bit-identical across engines).
	Engine EngineKind

	// EngineSync selects the sharded engine's shard-synchronization scheme
	// (simulation speed only; simulated results are bit-identical across
	// schemes). Ignored by the sequential engine.
	EngineSync EngineSync

	// NetModel selects the interconnect latency model. NetMesh changes
	// simulated timing (per-pair transit instead of the fixed average) — it
	// is a model knob, not a host-speed knob.
	NetModel NetModel

	// Sample configures SMARTS-style sampled execution: functional
	// fast-forward between periodic detailed measurement windows. The zero
	// value (and any Stride-0 spec) keeps every cycle detailed and is
	// bit-identical to no sampling at all. Enabling it is an INTENTIONAL
	// TIMING-MODEL CHANGE — read elapsed time from the extrapolated
	// estimate in stats.Report.Sampled. Ignored by ideal machines (their
	// protocol already runs in zero time).
	Sample SampleSpec

	// NetQueueCap bounds MAGIC's outgoing network queue (0 = the default
	// 16 entries of Table 3.1); DataBufs bounds its data-buffer pool (0 =
	// the default 16). Both change simulated timing under load: a full
	// queue stalls the PP, an exhausted buffer pool NAKs the request.
	NetQueueCap int
	DataBufs    int

	// PPClockDiv divides the protocol processor's clock relative to the
	// 100 MHz system clock: every PP cycle costs PPClockDiv system cycles
	// (0 or 1 = the paper's clock-matched PP). The design-space sweep uses
	// it to price slower, cheaper PP implementations.
	PPClockDiv int

	Timing Timing

	// MemBytesPerNode sizes each node's local memory slice. Placement maps
	// pages onto nodes; this only bounds the directory.
	MemBytesPerNode int
}

// DefaultConfig returns the 16-processor FLASH configuration of Section 3.
func DefaultConfig() Config {
	return Config{
		Kind:            KindFLASH,
		Nodes:           16,
		CacheSize:       1 << 20,
		CacheWays:       2,
		MSHRs:           4,
		Placement:       PlaceFirstTouch,
		Speculation:     true,
		PPMode:          PPDualIssue,
		MDCSize:         64 << 10,
		MDCWays:         2,
		Timing:          DefaultTiming(),
		MemBytesPerNode: 32 << 20,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("arch: Nodes must be positive, got %d", c.Nodes)
	}
	if err := CacheGeometry("CacheSize", c.CacheSize, "CacheWays", c.CacheWays); err != nil {
		return fmt.Errorf("arch: %w", err)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("arch: MSHRs must be positive, got %d", c.MSHRs)
	}
	if c.Kind == KindFLASH {
		if err := CacheGeometry("MDCSize", c.MDCSize, "MDCWays", c.MDCWays); err != nil {
			return fmt.Errorf("arch: %w", err)
		}
	}
	if c.MemBytesPerNode <= 0 || c.MemBytesPerNode%PageSize != 0 {
		return fmt.Errorf("arch: MemBytesPerNode %d must be a positive multiple of the page size", c.MemBytesPerNode)
	}
	if c.NetQueueCap < 0 {
		return fmt.Errorf("arch: NetQueueCap must be non-negative, got %d", c.NetQueueCap)
	}
	if c.DataBufs < 0 {
		return fmt.Errorf("arch: DataBufs must be non-negative, got %d", c.DataBufs)
	}
	if c.PPClockDiv < 0 {
		return fmt.Errorf("arch: PPClockDiv must be non-negative, got %d", c.PPClockDiv)
	}
	if err := c.Sample.Validate(); err != nil {
		return err
	}
	return nil
}

// CacheGeometry checks a cache of size bytes and the given associativity,
// naming each quantity as sizeName or waysName in its error: at least one
// way, and a positive power-of-two number of sets of ways lines each, since
// both the processor cache and the MDC index a set with address bits.
func CacheGeometry(sizeName string, size int, waysName string, ways int) error {
	if ways < 1 {
		return fmt.Errorf("%s %d: must be at least 1", waysName, ways)
	}
	setBytes := LineSize * ways
	if sets := size / setBytes; size <= 0 || size%setBytes != 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("%s %d: must be a power-of-two number of %d-way sets of %d-byte lines", sizeName, size, ways, LineSize)
	}
	return nil
}

// SimKey renders every field that affects simulated behaviour into a stable
// string. Two configs with equal SimKeys produce bit-identical simulations
// regardless of host-side choices (PPDispatch, Engine, EngineSync), which
// is what makes snapshot restore across machines and content-addressed
// result caching sound. Timing is included wholesale; host-only fields are
// deliberately absent.
func (c *Config) SimKey() string {
	return fmt.Sprintf(
		"kind=%v nodes=%d cache=%d/%d mshrs=%d place=%v spec=%v ppmode=%d proto=%d mdc=%d/%d net=%v nqcap=%d dbufs=%d ppdiv=%d sample=%d/%d/%d timing=%+v mem=%d",
		c.Kind, c.Nodes, c.CacheSize, c.CacheWays, c.MSHRs, c.Placement,
		c.Speculation, c.PPMode, c.Protocol, c.MDCSize, c.MDCWays, c.NetModel,
		c.NetQueueCap, c.DataBufs, c.PPClockDiv,
		c.Sample.Detail, c.Sample.Stride, c.Sample.Warmup,
		c.Timing, c.MemBytesPerNode)
}

// HomeOf computes the home node of an address under the static interleaved
// layout: the machine's physical address space is the concatenation of the
// node memories, and placement policies choose which physical page backs
// each virtual page. Here physical addresses encode the node directly.
func (c *Config) HomeOf(a Addr) NodeID {
	return NodeID(uint64(a) / uint64(c.MemBytesPerNode) % uint64(c.Nodes))
}

// NodeBase returns the first physical address owned by node n.
func (c *Config) NodeBase(n NodeID) Addr {
	return Addr(uint64(n) * uint64(c.MemBytesPerNode))
}

// LocalLine returns the node-local line index of address a within its home
// node's memory (used to index the directory).
func (c *Config) LocalLine(a Addr) uint64 {
	return (uint64(a) % uint64(c.MemBytesPerNode)) >> LineShift
}
