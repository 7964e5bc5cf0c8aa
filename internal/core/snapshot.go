package core

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/ideal"
	"flashsim/internal/magic"
	"flashsim/internal/memsys"
	"flashsim/internal/network"
)

// Snapshot is a deterministic machine checkpoint taken at a quiescent pause
// point (every processor parked at a batch-refill boundary or finished, all
// controller queues and network traffic drained). Both memories are
// captured copy-on-write: Data aliases the data store's page table and
// each Nodes[i].Magic aliases that node's protocol-memory page table
// (directory and pointer pool), frozen at capture time, and both the donor
// and any machine restored from the snapshot clone a page on its first
// subsequent write. Pages no run ever wrote are not in the tables at all —
// every machine with the snapshot's SimKey computes the same pristine value
// for them. The small remainder — caches, MDC tags, PP registers, memory
// controllers, port sequence counters — is deep-copied, so a snapshot is
// immutable, costs O(state the donor touched), and may seed any number of
// restores.
//
// A Snapshot does not capture workload coroutine state, so a restored
// machine holds the donor's simulated state but cannot run on.
type Snapshot struct {
	// SimKey is the donor's arch.Config.SimKey; Restore demands equality so
	// a snapshot can only land on a machine simulating identical hardware.
	SimKey string

	// Data is the frozen copy-on-write store image.
	Data memsys.Frozen

	// Nodes holds each node's unit states, indexed by node: deep copies,
	// except the protocol-memory page table inside each MagicState.
	Nodes []NodeState
}

// NodeState is one node's captured units. The zero NodeState is a freshly
// constructed node.
type NodeState struct {
	CPU   cpu.CPUState
	Magic magic.MagicState
	Mem   memsys.MemoryState
	Port  network.PortState
	Ideal ideal.ControllerState // always zero: snapshots are FLASH-only
}

// snapshotable reports whether the machine is in a configuration the
// snapshot layer supports: a plain FLASH machine with no sampled execution
// and no tracer. Each excluded feature holds run state outside the captured
// components (fast-forward chains publish through write-through views, a
// tracer's sinks accumulate history) that a restore could not reproduce.
func (m *Machine) snapshotable() error {
	if m.Cfg.Kind != arch.KindFLASH {
		return fmt.Errorf("core: snapshots support FLASH machines only (kind %v)", m.Cfg.Kind)
	}
	if m.Cfg.Sample.Enabled() {
		return fmt.Errorf("core: snapshots do not support sampled execution")
	}
	if m.Tracer.Active() {
		return fmt.Errorf("core: snapshots do not support an active tracer")
	}
	return nil
}

// Snapshot captures the machine at a quiescent pause point. The caller
// must have run the machine with PauseAfterRefs so that every processor is
// either paused at a batch boundary or finished, and the run must have
// drained (Run returned nil): outstanding misses completed, controller
// queues empty, buffered store views flushed. Otherwise the first unit
// found not quiescent names itself, the cycle and what it still holds.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if err := m.snapshotable(); err != nil {
		return nil, err
	}
	for i, v := range m.Views {
		if p := v.Pending(); p != 0 {
			return nil, fmt.Errorf("core: Snapshot: node %d view holds %d unflushed writes", i, p)
		}
	}
	s := &Snapshot{SimKey: m.Cfg.SimKey(), Nodes: make([]NodeState, len(m.Nodes))}
	for i, n := range m.Nodes {
		st := &s.Nodes[i]
		var err error
		if st.CPU, err = n.CPU.CaptureState(); err != nil {
			return nil, fmt.Errorf("core: Snapshot: %w", err)
		}
		if st.Magic, err = n.Magic.CaptureState(); err != nil {
			return nil, fmt.Errorf("core: Snapshot: %w", err)
		}
		st.Mem = n.Mem.CaptureState()
		st.Port = m.Net.Port(n.CPU.ID, nil).CaptureState()
	}
	s.Data = m.Backing.SnapshotChunks()
	return s, nil
}

// Restore installs a snapshot into this machine, which must simulate
// identical hardware (SimKey equality): afterwards it holds the donor's
// memories, caches, controllers and statistics, its engine clock at zero
// and its event queues empty. Snapshot on the restored machine yields a
// snapshot equal to the one installed.
func (m *Machine) Restore(s *Snapshot) error {
	if err := m.snapshotable(); err != nil {
		return err
	}
	if got := m.Cfg.SimKey(); got != s.SimKey {
		return fmt.Errorf("core: Restore: config mismatch:\n  machine:  %s\n  snapshot: %s", got, s.SimKey)
	}
	if len(s.Nodes) != len(m.Nodes) {
		return fmt.Errorf("core: Restore: %d node states for %d nodes", len(s.Nodes), len(m.Nodes))
	}
	m.install(s.Data, s.Nodes)
	return nil
}

// Reset returns the machine to its freshly constructed state — engine
// clock at zero, data store and protocol memories pristine, caches cold,
// controllers idle and booted, statistics and occupancy samples cleared —
// so experiment drivers can recycle a machine across runs instead of
// paying core.New (component allocation) per run. It is Restore's install
// of the zero node state, on either machine kind. Like New, it costs
// O(state the previous run touched), not O(configured memory). Host-side
// attachments survive where they are construction choices (engine kind,
// sync scheme, PP dispatch backend, store write-through, occupancy
// sampling); tracers and metrics registries attached by the previous user
// stay attached and should be re-set by the next user if unwanted.
func (m *Machine) Reset() { m.install(memsys.Frozen{}, nil) }

// install is Restore and Reset's one per-node loop: it empties the engine
// and the store views and installs data and each node's state, or
// pristine memory and zero node states when they are zero.
func (m *Machine) install(data memsys.Frozen, nodes []NodeState) {
	m.Eng.Reset()
	m.Backing.RestoreShared(data)
	var zero NodeState
	for i, n := range m.Nodes {
		st := &zero
		if nodes != nil {
			st = &nodes[i]
		}
		m.Views[i].Reset()
		n.CPU.RestoreState(st.CPU)
		n.Mem.RestoreState(st.Mem)
		m.Net.Port(n.CPU.ID, nil).RestoreState(st.Port)
		if n.Magic != nil {
			n.Magic.RestoreState(st.Magic)
		}
		if n.Ideal != nil {
			n.Ideal.RestoreState(st.Ideal)
		}
	}
	m.Elapsed = 0
}

// PauseAfterRefs arms every processor to pause at the first batch-refill
// boundary at or after its k-th reference retires (0 disarms). Pausing
// happens only between reference batches, so outstanding misses drain
// naturally and the machine reaches a capturable quiescent state when Run
// returns. Call before Run.
func (m *Machine) PauseAfterRefs(k uint64) {
	for _, n := range m.Nodes {
		n.CPU.PauseAfter(k)
	}
}

// SimKeyFor returns the simulated-behavior key of the machine New builds
// from cfg (see resolve). Two configs with equal keys produce bit-identical
// simulations regardless of host-side choices; the experiment planner and
// the result cache key on this.
func SimKeyFor(cfg arch.Config) string {
	cfg = resolve(cfg)
	return cfg.SimKey()
}
