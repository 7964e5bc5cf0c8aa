package core

import (
	"fmt"
	"slices"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/protocol"
)

// CheckCoherence verifies directory/cache consistency on a quiesced
// machine:
//
//   - no line is pending and no invalidation acks are outstanding;
//   - a dirty line is Modified in exactly its owner's cache and nowhere
//     else;
//   - every cached copy of a clean line is recorded in the sharer set (the
//     LOCAL bit for the home's own processor, pool entries otherwise);
//   - on FLASH nodes, the pointer pool's free list plus all sharer-list
//     entries account for every pool entry (no leaks, no cycles).
//
// Replacement hints make the recorded sharer set exact on a quiesced
// machine, but the check only requires it to be a superset of the true
// copy set, which is the safety-critical direction.
func (m *Machine) CheckCoherence() error {
	// Collect cache contents per line.
	type copyInfo struct {
		mods    []arch.NodeID
		shareds []arch.NodeID
	}
	lines := make(map[uint64]*copyInfo)
	for i, n := range m.Nodes {
		for l, st := range n.CPU.Cache.Lines() {
			ci := lines[l]
			if ci == nil {
				ci = &copyInfo{}
				lines[l] = ci
			}
			if st == cpu.Modified {
				ci.mods = append(ci.mods, arch.NodeID(i))
			} else {
				ci.shareds = append(ci.shareds, arch.NodeID(i))
			}
		}
	}

	dirOf := func(line uint64) (protocol.DirInfo, error) {
		addr := arch.Addr(line << arch.LineShift)
		n := m.Nodes[m.Cfg.HomeOf(addr)]
		if n.Magic != nil {
			return m.Prog.Layout.Decode(n.Magic.PP.Mem, m.Cfg.LocalLine(addr))
		}
		// One line's state, read in place: copying the home's whole
		// directory per cached line made the audit quadratic.
		d := n.Ideal.Line(line)
		return protocol.DirInfo{
			Dirty: d.Dirty, Pending: d.Pending, Local: d.Local,
			Owner: d.Owner, Sharers: d.Sharers, Acks: d.Acks,
		}, nil
	}

	check := func(line uint64, ci *copyInfo) error {
		d, err := dirOf(line)
		if err != nil {
			return err
		}
		home := m.Cfg.HomeOf(arch.Addr(line << arch.LineShift))
		if d.Pending {
			return fmt.Errorf("line %#x: pending after quiesce", line)
		}
		if d.Acks != 0 {
			return fmt.Errorf("line %#x: %d acks outstanding after quiesce", line, d.Acks)
		}
		if d.Dirty {
			if len(ci.mods) != 1 || ci.mods[0] != d.Owner {
				return fmt.Errorf("line %#x: dirty at owner %d but Modified copies are %v", line, d.Owner, ci.mods)
			}
			if len(ci.shareds) != 0 {
				return fmt.Errorf("line %#x: dirty but shared copies exist at %v", line, ci.shareds)
			}
			return nil
		}
		if len(ci.mods) != 0 {
			return fmt.Errorf("line %#x: clean in directory but Modified at %v", line, ci.mods)
		}
		for _, s := range ci.shareds {
			if (d.Local && s == home) || slices.Contains(d.Sharers, s) {
				continue
			}
			return fmt.Errorf("line %#x: node %d holds a copy but is not recorded (local=%v sharers %v)", line, s, d.Local, d.Sharers)
		}
		return nil
	}

	for line, ci := range lines {
		if err := check(line, ci); err != nil {
			return err
		}
	}

	// Pool accounting on FLASH machines running the dynamic pointer
	// allocation protocol: free entries plus all recorded sharer entries
	// must cover the pool exactly. Both counts skip protocol memory no
	// handler ever wrote, so the audit costs what the run touched.
	if m.Prog != nil && m.Prog.Layout.Proto == arch.ProtoDynPtr {
		lay := m.Prog.Layout
		nlines := uint64(m.Cfg.MemBytesPerNode / arch.LineSize)
		for i, n := range m.Nodes {
			free, err := lay.FreeCount(n.Magic.PP.Mem, n.Magic.PP.Reg(24))
			if err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
			inUse, err := lay.SharerCount(n.Magic.PP.Mem, nlines)
			if err != nil {
				return fmt.Errorf("node %d %w", i, err)
			}
			if free+inUse != int(lay.PoolSize) {
				return fmt.Errorf("node %d: pool leak: free %d + in-use %d != %d", i, free, inUse, lay.PoolSize)
			}
		}
	}
	return nil
}
