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
//   - on FLASH nodes whose directory has a pointer pool, the free list plus
//     all sharer-list entries account for every pool entry (no leaks, no
//     cycles; protocol.Layout.AuditPool).
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

	if m.Prog != nil {
		for i, n := range m.Nodes {
			pp := n.Magic.PP
			if err := m.Prog.Layout.AuditPool(pp.Mem, pp.Reg(protocol.FreeHeadReg)); err != nil {
				return fmt.Errorf("node %d: %w", i, err)
			}
		}
	}
	return nil
}
