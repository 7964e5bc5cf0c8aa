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
// copy set, which is the safety-critical direction. Of several bad lines,
// the error names the lowest.
//
// The audit works in place: it walks each cache's resident lines and
// checks every copy on its own against the home's directory entry (a line
// is bad exactly when one of its copies is), decoding FLASH headers into
// one reused buffer. Only the lowest bad line's copy set is gathered, by
// probing every cache, to word the error. A clean audit allocates nothing
// once the buffer has grown to the longest sharer set.
func (m *Machine) CheckCoherence() error {
	var badLine uint64
	bad := false
	for i, n := range m.Nodes {
		for line, st := range n.CPU.Cache.Resident {
			if (!bad || line < badLine) && !m.copyCoherent(line, arch.NodeID(i), st) {
				bad, badLine = true, line
			}
		}
	}
	if bad {
		return m.lineError(badLine)
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

// dirOf returns line's directory entry at its home. On FLASH it is the
// header decoded into the machine's buffer, overwritten by the next call; on the ideal
// machine it is the oracle's live entry, read in place, or the buffer
// zeroed if the oracle never recorded the line.
func (m *Machine) dirOf(line uint64) (*protocol.DirInfo, error) {
	addr := arch.Addr(line << arch.LineShift)
	n := m.Nodes[m.Cfg.HomeOf(addr)]
	if n.Magic != nil {
		err := m.Prog.Layout.DecodeInto(n.Magic.PP.Mem, m.Cfg.LocalLine(addr), &m.auditDir)
		return &m.auditDir, err
	}
	if d := n.Ideal.Entry(line); d != nil {
		return d, nil
	}
	m.auditDir = protocol.DirInfo{Sharers: m.auditDir.Sharers[:0]}
	return &m.auditDir, nil
}

// copyCoherent reports whether node's copy of line, in state st, agrees
// with the home directory: the line is settled, and either it is dirty and
// this is the owner's Modified copy, or it is clean and this is a recorded
// Shared copy.
func (m *Machine) copyCoherent(line uint64, node arch.NodeID, st cpu.LineState) bool {
	d, err := m.dirOf(line)
	switch {
	case err != nil || d.Pending || d.Acks != 0:
		return false
	case d.Dirty:
		return st == cpu.Modified && node == d.Owner
	case st == cpu.Modified:
		return false
	}
	home := m.Cfg.HomeOf(arch.Addr(line << arch.LineShift))
	return (d.Local && node == home) || slices.Contains(d.Sharers, node)
}

// lineError words the error for a line copyCoherent rejected, from its full
// copy set, gathered in node order by probing every cache.
func (m *Machine) lineError(line uint64) error {
	var mods, shareds []arch.NodeID
	for i, n := range m.Nodes {
		switch n.CPU.Cache.Probe(line) {
		case cpu.Modified:
			mods = append(mods, arch.NodeID(i))
		case cpu.Shared:
			shareds = append(shareds, arch.NodeID(i))
		}
	}
	d, err := m.dirOf(line)
	if err != nil {
		return err
	}
	home := m.Cfg.HomeOf(arch.Addr(line << arch.LineShift))
	switch {
	case d.Pending:
		return fmt.Errorf("line %#x: pending after quiesce", line)
	case d.Acks != 0:
		return fmt.Errorf("line %#x: %d acks outstanding after quiesce", line, d.Acks)
	case d.Dirty && (len(mods) != 1 || mods[0] != d.Owner):
		return fmt.Errorf("line %#x: dirty at owner %d but Modified copies are %v", line, d.Owner, mods)
	case d.Dirty && len(shareds) != 0:
		return fmt.Errorf("line %#x: dirty but shared copies exist at %v", line, shareds)
	case !d.Dirty && len(mods) != 0:
		return fmt.Errorf("line %#x: clean in directory but Modified at %v", line, mods)
	case !d.Dirty:
		for _, s := range shareds {
			if !(d.Local && s == home) && !slices.Contains(d.Sharers, s) {
				return fmt.Errorf("line %#x: node %d holds a copy but is not recorded (local=%v sharers %v)", line, s, d.Local, d.Sharers)
			}
		}
	}
	panic(fmt.Sprintf("core: line %#x failed the coherence audit but its copy set passes", line))
}
