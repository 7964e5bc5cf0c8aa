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
//   - no line is pending and no invalidation acks are outstanding, whether
//     or not any cache holds it;
//   - a dirty line is Modified in exactly its owner's cache and nowhere
//     else, whether or not any cache holds it;
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
// The audit works in place, in two walks. The copy walk visits each
// cache's resident lines and checks every copy on its own against the
// home's directory entry (a cached line is bad exactly when one of its
// copies is). The directory walk visits, in line order, every entry in a
// page a home has touched — the FLASH headers in materialized directory
// pages, the ideal oracle's entries in its allocated pages — and checks
// that it is settled and that a dirty entry's owner holds the line
// Modified, which catches the bad lines no cache holds. Entries of either
// kind decode into one reused buffer. Only the lowest bad line's copy set
// is gathered, by probing every cache, to word the error. A clean audit
// allocates nothing once the buffer has grown to the longest sharer set.
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
	for i := range m.Nodes {
		if line, ok := m.lowestUnsettled(i); ok && (!bad || line < badLine) {
			bad, badLine = true, line
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

// dirOf returns line's directory entry at its home, decoded into the
// machine's buffer and overwritten by the next call.
func (m *Machine) dirOf(line uint64) (*protocol.DirInfo, error) {
	addr := arch.Addr(line << arch.LineShift)
	return m.localDir(m.Nodes[m.Cfg.HomeOf(addr)], m.Cfg.LocalLine(addr))
}

// localDir decodes the directory entry of node n's local line l into the
// machine's buffer: a FLASH header from protocol memory, or the ideal
// oracle's entry.
func (m *Machine) localDir(n *Node, l uint64) (*protocol.DirInfo, error) {
	if n.Magic == nil {
		n.Ideal.DecodeInto(l, &m.auditDir)
		return &m.auditDir, nil
	}
	err := m.Prog.Layout.DecodeInto(n.Magic.PP.Mem, l, &m.auditDir)
	return &m.auditDir, err
}

// nextRecorded returns the smallest local line >= l of node n whose
// directory entry lies in a page the node has touched, and false if there
// is none. Entries in untouched pages are pristine (clean, no sharers): a
// FLASH header in a never-written protocol-memory page, an ideal entry in
// a page the oracle never allocated.
func (m *Machine) nextRecorded(n *Node, l uint64) (uint64, bool) {
	if n.Magic == nil {
		return n.Ideal.NextRecorded(l)
	}
	lay, mem := m.Prog.Layout, n.Magic.PP.Mem
	dir, end := uint64(lay.DirBase)/8, uint64(lay.PtrBase)/8
	w, ok := mem.NextMaterialized(dir + l)
	return w - dir, ok && w < end
}

// lowestUnsettled returns the lowest line homed at node i whose directory
// entry is not settled, and false if every entry is. It walks the entries
// of the node's touched directory pages in line order, so it stops at the
// first bad one.
func (m *Machine) lowestUnsettled(i int) (uint64, bool) {
	n := m.Nodes[i]
	first := uint64(m.Cfg.NodeBase(arch.NodeID(i))) >> arch.LineShift
	for l, ok := m.nextRecorded(n, 0); ok; l, ok = m.nextRecorded(n, l+1) {
		if d, err := m.localDir(n, l); err != nil || !m.entrySettled(first+l, d) {
			return first + l, true
		}
	}
	return 0, false
}

// entrySettled reports whether line's directory entry d is settled on a
// quiesced machine: not pending, no acks outstanding, and, if dirty, held
// Modified by its owner.
func (m *Machine) entrySettled(line uint64, d *protocol.DirInfo) bool {
	if d.Pending || d.Acks != 0 {
		return false
	}
	return !d.Dirty || uint(d.Owner) < uint(len(m.Nodes)) && m.Nodes[d.Owner].CPU.Cache.Probe(line) == cpu.Modified
}

// copyCoherent reports whether node's copy of line, in state st, agrees
// with the home directory: either the line is dirty and this is the
// owner's Modified copy, or it is clean and this is a recorded Shared copy.
// Whether the entry is settled is the directory walk's to check.
func (m *Machine) copyCoherent(line uint64, node arch.NodeID, st cpu.LineState) bool {
	d, err := m.dirOf(line)
	switch {
	case err != nil:
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
