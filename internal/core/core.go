// Package core assembles whole machines — FLASH nodes built around the
// programmable MAGIC controller, or the idealized hardwired machine — and
// provides the run driver the examples, experiments, and benchmarks use.
// This is the public face of the library: construct a Machine from an
// arch.Config, attach one reference source per processor, and Run.
package core

import (
	"fmt"
	"strings"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/ideal"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/metrics"
	"flashsim/internal/network"
	"flashsim/internal/protocol"
	"flashsim/internal/sim"
	"flashsim/internal/trace"
)

// Controller is the node-controller abstraction shared by MAGIC and the
// idealized machine.
type Controller interface {
	cpu.Ctl
	network.Sink
	Attach(*cpu.CPU)
}

// Node is one FLASH node: processor + cache, controller, and local memory.
type Node struct {
	CPU *cpu.CPU
	Mem *memsys.Memory

	// Magic is non-nil on FLASH machines.
	Magic *magic.Magic
	// Ideal is non-nil on idealized machines.
	Ideal *ideal.Controller
}

// Machine is a complete simulated multiprocessor.
type Machine struct {
	Cfg     arch.Config
	Eng     sim.Backend
	Net     *network.Network
	Nodes   []*Node
	Backing *memsys.Store // machine-wide data store, 8-byte words
	Views   []*memsys.View
	Prog    *protocol.Program

	// Elapsed is the parallel execution time: the cycle at which the last
	// processor retired its final reference.
	Elapsed sim.Cycle

	// Tracer is the machine's event tracer (nil = off); set via SetTracer.
	Tracer *trace.Tracer
	// Metrics is the machine's metrics registry (nil = off); set via
	// EnableMetrics. Run publishes machine counters and the engine's
	// host-cost profile into it on completion.
	Metrics *metrics.Registry

	// auditDir is CheckCoherence's directory decode buffer, reused for
	// every cached copy and every audit.
	auditDir protocol.DirInfo
}

// SetTracer attaches tr to every component of the machine — processors,
// controllers, memories, and the interconnect — replacing any previous
// tracer (nil detaches). Call before Run. Every component emits straight
// into tr, on every engine: a traced sharded machine runs its shards on one
// worker (setWorkers), so its trace is in emission order, as on seq.
func (m *Machine) SetTracer(tr *trace.Tracer) {
	m.Tracer = tr
	m.setWorkers()
	for _, n := range m.Nodes {
		n.CPU.Tr = tr
		n.Mem.SetTracer(tr, n.CPU.ID)
		m.Net.Port(n.CPU.ID, nil).Tr = tr
		if n.Magic != nil {
			n.Magic.Tr = tr
		}
		if n.Ideal != nil {
			n.Ideal.Tr = tr
		}
	}
}

// setWorkers is the sharded engine's one worker rule: a sampled machine
// (fast-forward chains hop across nodes synchronously) or a traced one
// (every unit emits into the one tracer, whose sinks take no lock) runs its
// shards on one goroutine in index order; any other uses the engine's
// default pool.
func (m *Machine) setWorkers() {
	if se, ok := m.Eng.(*sim.ShardedEngine); ok {
		se.Workers = 0
		if m.Cfg.Sample.Enabled() || m.Tracer != nil {
			se.Workers = 1
		}
	}
}

// resolve returns the configuration New actually builds from cfg. An ideal
// machine takes the hardwired controller's timing but keeps the caller's
// memory and network latencies, which it shares with FLASH, and drops
// sampling: its protocol already runs in zero time, so a functional phase
// would change nothing it measures. A zero network transit is derived from
// the node count.
func resolve(cfg arch.Config) arch.Config {
	if cfg.Kind == arch.KindIdeal {
		ideal := arch.IdealTiming()
		ideal.MemAccess = cfg.Timing.MemAccess
		ideal.MemLineBusy = cfg.Timing.MemLineBusy
		ideal.NetTransit = cfg.Timing.NetTransit
		cfg.Timing = ideal
		cfg.Sample = arch.SampleSpec{}
	}
	if cfg.Timing.NetTransit == 0 {
		cfg.Timing.NetTransit = uint32(network.AvgTransitFor(cfg.Nodes))
	}
	return cfg
}

// New builds a machine. The configuration's network transit latency is
// derived from the node count unless explicitly overridden beforehand.
func New(cfg arch.Config) (*Machine, error) {
	cfg = resolve(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind == arch.KindIdeal && cfg.Nodes > ideal.MaxNodes {
		return nil, fmt.Errorf("core: the ideal directory supports at most %d nodes, got %d", ideal.MaxNodes, cfg.Nodes)
	}

	m := &Machine{
		Cfg:     cfg,
		Backing: memsys.NewStore(cfg.Nodes * cfg.MemBytesPerNode / 8),
	}
	// The lookahead window and the store-visibility quantum are both the
	// minimum cross-node interaction delay: the uniform transit latency, or
	// the closest-pair transit under the mesh model, which every pair's mesh
	// transit meets or exceeds. Store visibility therefore follows the same
	// window quantization on every engine.
	w := sim.Cycle(cfg.Timing.NetTransit)
	var mesh *network.Mesh
	if cfg.NetModel == arch.NetMesh {
		mesh = network.NewMesh(cfg.Nodes)
		w = mesh.MinPairTransit()
	}
	switch cfg.Engine {
	case arch.EngineSharded:
		se := sim.NewShardedEngine(cfg.Nodes, w)
		// A sampled machine always runs on one worker (setWorkers), where
		// watermark scheduling buys nothing: it keeps the barrier scheme.
		if cfg.EngineSync == arch.EngineSyncWatermark && !cfg.Sample.Enabled() {
			se.SetSync(sim.SyncWatermark)
		}
		m.Eng = se
	default:
		m.Eng = sim.NewEngine()
	}
	m.setWorkers()
	m.Views = make([]*memsys.View, cfg.Nodes)
	for i := range m.Views {
		m.Views[i] = memsys.NewView(m.Backing)
	}
	m.Eng.SetQuantum(w, func() {
		for _, v := range m.Views {
			v.Flush()
		}
	})
	m.Net = network.New(cfg.Nodes, sim.Cycle(cfg.Timing.NetTransit))
	m.Net.SetMesh(mesh)

	if cfg.Kind == arch.KindFLASH {
		prog, err := protocol.Build(&m.Cfg)
		if err != nil {
			return nil, err
		}
		m.Prog = prog
	}

	for i := 0; i < cfg.Nodes; i++ {
		id := arch.NodeID(i)
		sched := m.Eng.Node(i)
		port := m.Net.Port(id, sched)
		mem := memsys.New(m.Cfg.Timing)
		n := &Node{Mem: mem}
		var ctl Controller
		switch cfg.Kind {
		case arch.KindFLASH:
			mg := magic.New(id, sched, &m.Cfg, m.Prog, mem, port)
			n.Magic, ctl = mg, mg
		case arch.KindIdeal:
			n.Ideal = ideal.New(id, sched, &m.Cfg, mem, port)
			ctl = n.Ideal
		}
		n.CPU = cpu.New(id, sched, &m.Cfg, ctl, m.Views[i])
		ctl.Attach(n.CPU)
		m.Net.Attach(id, ctl)
		m.Nodes = append(m.Nodes, n)
	}
	if cfg.Kind == arch.KindFLASH && cfg.Sample.Enabled() {
		// Fast-forward chains hop node-to-node directly, bypassing the
		// modeled network; give every controller the full peer table.
		peers := make([]*magic.Magic, cfg.Nodes)
		for i, n := range m.Nodes {
			peers[i] = n.Magic
		}
		for _, n := range m.Nodes {
			n.Magic.Peers = peers
		}
	}
	return m, nil
}

// Word returns a pointer to the backing-store word at addr, for untimed
// initialization by workloads before the simulation starts (and for
// verification afterwards — Run flushes every node's view on completion).
func (m *Machine) Word(a arch.Addr) *uint64 { return m.Backing.Word(uint64(a) / 8) }

// Run attaches one reference source per processor, runs the machine until
// every source is exhausted and all outstanding traffic drains, and records
// the parallel execution time. limit (0 = none) bounds the simulation in
// cycles as a hang guard. Processors parked at a PauseAfterRefs pause point
// are accounted for — only a genuinely stuck processor is a deadlock.
// Elapsed is the latest processor finish time, so Run refuses a machine
// with a processor already finished (a second Run without Reset, or a
// Restore of a snapshot taken after one finished): that finish time
// belongs to an earlier run's clock.
func (m *Machine) Run(sources []cpu.RefSource, limit sim.Cycle) error {
	if len(sources) != len(m.Nodes) {
		return fmt.Errorf("core: %d sources for %d processors", len(sources), len(m.Nodes))
	}
	for i, n := range m.Nodes {
		if n.CPU.Stats.Finished {
			return fmt.Errorf("core: Run: processor %d already finished an earlier run; Reset the machine first", i)
		}
	}
	for i, n := range m.Nodes {
		n.CPU.SetSource(sources[i])
		n.CPU.Start()
	}
	m.Eng.SetLimit(limit)
	err := m.Eng.Run()
	// Publish any writes still buffered in node views so post-run
	// verification and coherence checks see the final memory image.
	for _, v := range m.Views {
		v.Flush()
	}
	if err != nil {
		m.publishMetrics()
		return fmt.Errorf("%w\n%s", err, m.DebugState())
	}
	running := 0
	for _, n := range m.Nodes {
		switch st := &n.CPU.Stats; {
		case st.Finished:
			m.Elapsed = max(m.Elapsed, st.FinishedAt)
		case !n.CPU.Paused():
			running++
		}
	}
	m.publishMetrics()
	if running != 0 {
		return fmt.Errorf("core: deadlock: %d processors never finished (cycle %d)\n%s", running, m.Eng.Now(), m.DebugState())
	}
	return nil
}

// DebugState is the stuck-run report Run's cycle-limit and deadlock errors
// carry: one line per processor and, on FLASH, one per controller, each that
// unit's in-flight state.
func (m *Machine) DebugState() string {
	var lines []string
	for i, n := range m.Nodes {
		lines = append(lines, fmt.Sprintf("cpu%d: %s", i, n.CPU.DebugState()))
		if n.Magic != nil {
			lines = append(lines, fmt.Sprintf("magic%d: %s", i, n.Magic.DebugState()))
		}
	}
	return strings.Join(lines, "\n")
}
