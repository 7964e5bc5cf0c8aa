package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/protocol"
)

// referenceCheckCoherence is the map-based audit that CheckCoherence's
// in-place walks replaced, kept as its reference: it gathers every line's
// copy set from all caches into a map, adds every line whose home records
// a directory entry (a nonzero FLASH header word or ideal oracle entry,
// scanned over every line of every home) with the
// copy set it has, decodes each line's directory once into a fresh
// DirInfo, checks each line as a whole and keeps the lowest bad line, then
// runs the same pool audit. CheckCoherence must return exactly its error.
func referenceCheckCoherence(m *Machine) error {
	type copyInfo struct {
		mods    []arch.NodeID
		shareds []arch.NodeID
	}
	lines := make(map[uint64]*copyInfo)
	for i, n := range m.Nodes {
		for l, st := range n.CPU.Cache.Resident {
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
	perNode := uint64(m.Cfg.MemBytesPerNode / arch.LineSize)
	for i, n := range m.Nodes {
		first := uint64(m.Cfg.NodeBase(arch.NodeID(i))) >> arch.LineShift
		for l := range perNode {
			var recorded bool
			if n.Magic != nil {
				recorded = n.Magic.PP.Mem.Load(m.Prog.Layout.DirOffset(l)/8) != 0
			} else {
				var d protocol.DirInfo
				n.Ideal.DecodeInto(l, &d)
				recorded = d.Dirty || d.Pending || d.Local || d.Acks != 0 || len(d.Sharers) != 0
			}
			if recorded && lines[first+l] == nil {
				lines[first+l] = &copyInfo{}
			}
		}
	}

	dirOf := func(line uint64) (protocol.DirInfo, error) {
		addr := arch.Addr(line << arch.LineShift)
		n := m.Nodes[m.Cfg.HomeOf(addr)]
		if n.Magic != nil {
			return m.Prog.Layout.Decode(n.Magic.PP.Mem, m.Cfg.LocalLine(addr))
		}
		var d protocol.DirInfo
		n.Ideal.DecodeInto(m.Cfg.LocalLine(addr), &d)
		return d, nil
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

	var bad error
	var badLine uint64
	for line, ci := range lines {
		if err := check(line, ci); err != nil && (bad == nil || line < badLine) {
			bad, badLine = err, line
		}
	}
	if bad != nil {
		return bad
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

// sameAudit requires CheckCoherence to return exactly the reference
// audit's error (both nil, or equal strings) and returns it.
func sameAudit(t *testing.T, m *Machine) error {
	t.Helper()
	want, got := referenceCheckCoherence(m), m.CheckCoherence()
	if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
		t.Fatalf("CheckCoherence = %v\nreference audit = %v", got, want)
	}
	return got
}

// auditMachines are the three machines the audit's tests run on.
var auditMachines = []struct {
	name  string
	kind  arch.MachineKind
	proto arch.Protocol
}{
	{"flash-dynptr", arch.KindFLASH, arch.ProtoDynPtr},
	{"flash-bitvec", arch.KindFLASH, arch.ProtoBitVector},
	{"ideal", arch.KindIdeal, arch.ProtoDynPtr},
}

// newAuditMachine builds a 4-node machine of the given kind and protocol
// with 1 MB of memory per node.
func newAuditMachine(tb testing.TB, kind arch.MachineKind, proto arch.Protocol) *Machine {
	cfg := testConfig(kind)
	cfg.Nodes = 4
	cfg.Protocol = proto
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// medleyLines is the lines per home that runMedley touches.
const medleyLines = 12

// medleyLine returns line k of the medley homed at node h. Each home's
// lines start in a set of their own, so no two of the medley's lines share
// a cache set and a corruption that fills a copy evicts nothing.
func medleyLine(m *Machine, h, k int) uint64 {
	return uint64(m.Cfg.NodeBase(arch.NodeID(h))+arch.Addr((h*medleyLines+k)*arch.LineSize)) >> arch.LineShift
}

// runMedley runs a scripted medley on m, a 4-node machine, that leaves
// each home's lines in every quiesced directory state: dirty at a remote
// owner and at the home, shared by every node (the home's LOCAL bit
// included), shared by remote nodes only, dirty after invalidating a
// sharer, and shared after a 3-hop read of a dirty line. It fails tb
// unless the audit passes.
func runMedley(tb testing.TB, m *Machine) {
	const settle = 200_000 // compute cycles ahead of a node's second phase
	var phases [2][4][]cpu.Ref
	ref := func(phase, node int, kind arch.RefKind, line uint64) {
		phases[phase][node] = append(phases[phase][node], cpu.Ref{Kind: kind, Addr: arch.Addr(line << arch.LineShift), Busy: 4})
	}
	for h := range 4 {
		a, b, c := (h+1)%4, (h+2)%4, (h+3)%4
		for k := range medleyLines {
			l := medleyLine(m, h, k)
			switch k % 6 {
			case 0: // dirty at a remote owner
				ref(0, (h+1+k/6)%4, arch.RefWrite, l)
			case 1: // dirty at the home
				ref(0, h, arch.RefWrite, l)
			case 2: // shared by every node, LOCAL included
				for n := range 4 {
					ref(0, n, arch.RefRead, l)
				}
			case 3: // shared by remote nodes only
				ref(0, a, arch.RefRead, l)
				ref(0, b, arch.RefRead, l)
			case 4: // dirty after invalidating a sharer
				ref(0, c, arch.RefRead, l)
				ref(1, a, arch.RefWrite, l)
			case 5: // shared after a 3-hop read of a dirty line
				ref(0, b, arch.RefWrite, l)
				ref(1, c, arch.RefRead, l)
			}
		}
	}
	srcs := make([]cpu.RefSource, len(m.Nodes))
	for n := range srcs {
		second := phases[1][n]
		if len(second) > 0 {
			second[0].Busy = settle
		}
		srcs[n] = &ScriptSource{Refs: append(phases[0][n], second...)}
	}
	if err := m.Run(srcs, 10_000_000); err != nil {
		tb.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		tb.Fatalf("clean run: %v", err)
	}
}

// dirWord returns FLASH line's directory header word in its home's
// protocol memory.
func dirWord(m *Machine, line uint64) *uint64 {
	a := arch.Addr(line << arch.LineShift)
	pp := m.Nodes[m.Cfg.HomeOf(a)].Magic.PP
	return pp.Mem.Word(m.Prog.Layout.DirOffset(m.Cfg.LocalLine(a)) / 8)
}

// idealEntry applies change to ideal line's oracle directory entry: it
// decodes the entry, with its own copy of the sharers, and writes the
// changed entry back. It returns the entry as it was.
func idealEntry(m *Machine, line uint64, change func(e *protocol.DirInfo)) protocol.DirInfo {
	a := arch.Addr(line << arch.LineShift)
	ctl, l := m.Nodes[m.Cfg.HomeOf(a)].Ideal, m.Cfg.LocalLine(a)
	var was protocol.DirInfo
	ctl.DecodeInto(l, &was)
	e := was
	e.Sharers = slices.Clone(was.Sharers)
	change(&e)
	ctl.SetEntry(l, e)
	return was
}

// lineView is one cached line's copy set and directory entry.
type lineView struct {
	line   uint64
	home   arch.NodeID
	copies map[arch.NodeID]cpu.LineState
	dir    protocol.DirInfo
}

// recorded reports whether the directory records n as a sharer.
func (v lineView) recorded(n arch.NodeID) bool {
	return (v.dir.Local && n == v.home) || slices.Contains(v.dir.Sharers, n)
}

// unrecorded returns a node that neither holds a copy of the clean line
// nor is recorded as a sharer, or -1.
func (v lineView) unrecorded() arch.NodeID {
	for n := range arch.NodeID(4) {
		if _, ok := v.copies[n]; !ok && !v.recorded(n) {
			return n
		}
	}
	return -1
}

// cachedLines returns every cached line of m in ascending order, with its
// copy set and directory entry.
func cachedLines(t *testing.T, m *Machine) []lineView {
	byLine := map[uint64]map[arch.NodeID]cpu.LineState{}
	for i, n := range m.Nodes {
		for l, st := range n.CPU.Cache.Resident {
			if byLine[l] == nil {
				byLine[l] = map[arch.NodeID]cpu.LineState{}
			}
			byLine[l][arch.NodeID(i)] = st
		}
	}
	var out []lineView
	for l, copies := range byLine {
		d, err := m.dirOf(l)
		if err != nil {
			t.Fatal(err)
		}
		dir := *d
		dir.Sharers = slices.Clone(d.Sharers)
		out = append(out, lineView{l, m.Cfg.HomeOf(arch.Addr(l << arch.LineShift)), copies, dir})
	}
	slices.SortFunc(out, func(a, b lineView) int { return cmp.Compare(a.line, b.line) })
	return out
}

// fillCopy gives node a copy of line in state s, failing t if that
// evicts another line.
func fillCopy(t *testing.T, m *Machine, node arch.NodeID, line uint64, s cpu.LineState) {
	if victim, _, evicted := m.Nodes[node].CPU.Cache.Fill(line, s); evicted {
		t.Fatalf("filling line %#x at node %d evicted line %#x", line, node, victim)
	}
}

// setPending sets the pending bit of line's directory entry.
func setPending(m *Machine, line uint64) {
	if m.Prog == nil {
		idealEntry(m, line, func(e *protocol.DirInfo) { e.Pending = true })
		return
	}
	*dirWord(m, line) |= 1 << protocol.BPending
}

// setAck makes line's directory entry count one outstanding ack.
func setAck(m *Machine, line uint64) {
	switch {
	case m.Prog == nil:
		idealEntry(m, line, func(e *protocol.DirInfo) { e.Acks = 1 })
	case m.Prog.Layout.Proto == arch.ProtoBitVector:
		*dirWord(m, line) |= 1 << protocol.BVAckPos
	default:
		*dirWord(m, line) |= 1 << protocol.AckPos
	}
}

// setDirty sets the dirty bit of line's directory entry, keeping its
// owner field.
func setDirty(m *Machine, line uint64) {
	if m.Prog == nil {
		idealEntry(m, line, func(e *protocol.DirInfo) { e.Dirty = true })
		return
	}
	*dirWord(m, line) |= 1 << protocol.BDirty
}

// dropCopies invalidates every cached copy of v's line, leaving its
// directory entry as it was: a line that no cache holds.
func dropCopies(m *Machine, v lineView) {
	for n := range v.copies {
		m.Nodes[n].CPU.Cache.SetState(v.line, cpu.Invalid)
	}
}

// auditCorruptions are the audit's error classes, each a corruption of
// one cached line that qualifies and the text the error names it with.
// The uncached classes first drop every copy of the line, so only the
// directory walk can find them.
var auditCorruptions = []struct {
	name      string
	msg       string
	qualifies func(v lineView) bool
	corrupt   func(t *testing.T, m *Machine, v lineView)
}{
	{"pending", "pending after quiesce",
		func(lineView) bool { return true },
		func(t *testing.T, m *Machine, v lineView) { setPending(m, v.line) }},
	{"acks", "1 acks outstanding after quiesce",
		func(lineView) bool { return true },
		func(t *testing.T, m *Machine, v lineView) { setAck(m, v.line) }},
	{"dirty-owner-not-modified", "dirty at owner",
		func(v lineView) bool { return v.dir.Dirty },
		func(t *testing.T, m *Machine, v lineView) {
			m.Nodes[v.dir.Owner].CPU.Cache.SetState(v.line, cpu.Shared)
		}},
	{"dirty-shared-copy", "dirty but shared copies exist",
		func(v lineView) bool { return v.dir.Dirty },
		func(t *testing.T, m *Machine, v lineView) {
			fillCopy(t, m, (v.dir.Owner+1)%4, v.line, cpu.Shared)
		}},
	{"clean-modified-copy", "clean in directory but Modified",
		func(v lineView) bool { return !v.dir.Dirty },
		func(t *testing.T, m *Machine, v lineView) {
			for n := range arch.NodeID(4) {
				if _, ok := v.copies[n]; ok {
					m.Nodes[n].CPU.Cache.SetState(v.line, cpu.Modified)
					return
				}
			}
		}},
	{"unrecorded-sharer", "holds a copy but is not recorded",
		func(v lineView) bool { return !v.dir.Dirty && v.unrecorded() >= 0 },
		func(t *testing.T, m *Machine, v lineView) {
			fillCopy(t, m, v.unrecorded(), v.line, cpu.Shared)
		}},
	{"uncached-pending", "pending after quiesce",
		func(lineView) bool { return true },
		func(t *testing.T, m *Machine, v lineView) { dropCopies(m, v); setPending(m, v.line) }},
	{"uncached-acks", "1 acks outstanding after quiesce",
		func(lineView) bool { return true },
		func(t *testing.T, m *Machine, v lineView) { dropCopies(m, v); setAck(m, v.line) }},
	{"uncached-dirty", "but Modified copies are []",
		func(v lineView) bool { return !v.dir.Dirty },
		func(t *testing.T, m *Machine, v lineView) { dropCopies(m, v); setDirty(m, v.line) }},
}

// TestCheckCoherenceMatchesReference corrupts, on each machine after the
// medley, the lowest and the highest cached line that qualify for each of
// the audit's error classes, and requires the in-place audit's error to
// equal the reference audit's, which must name the lowest line with the
// class's text.
func TestCheckCoherenceMatchesReference(t *testing.T) {
	for _, mc := range auditMachines {
		for _, c := range auditCorruptions {
			t.Run(mc.name+"/"+c.name, func(t *testing.T) {
				m := newAuditMachine(t, mc.kind, mc.proto)
				runMedley(t, m)
				var targets []lineView
				for _, v := range cachedLines(t, m) {
					if c.qualifies(v) {
						targets = append(targets, v)
					}
				}
				if len(targets) < 2 {
					t.Fatalf("%d cached lines qualify, want at least 2", len(targets))
				}
				lo, hi := targets[0], targets[len(targets)-1]
				c.corrupt(t, m, hi)
				c.corrupt(t, m, lo)
				err := sameAudit(t, m)
				if prefix := fmt.Sprintf("line %#x: ", lo.line); err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), c.msg) {
					t.Fatalf("audit = %v, want %q naming %q", err, prefix, c.msg)
				}
			})
		}
	}
}

// TestCheckCoherenceAllocatesNothing pins the audit's cost on a post-run
// machine of each kind at zero allocations. Every node reads the same
// `lines` lines homed at node 0, so that home's directory holds `lines`
// entries with four sharers each; the audit checks each of the
// lines*4 copies against its home in place, decoding FLASH headers into
// the machine's reused buffer.
func TestCheckCoherenceAllocatesNothing(t *testing.T) {
	const lines = 256
	for _, mc := range auditMachines {
		t.Run(mc.name, func(t *testing.T) {
			m := newAuditMachine(t, mc.kind, mc.proto)
			cfg := m.Cfg
			srcs := make([]cpu.RefSource, cfg.Nodes)
			for i := range srcs {
				refs := make([]cpu.Ref, lines)
				for l := range refs {
					refs[l] = cpu.Ref{Kind: arch.RefRead, Addr: cfg.NodeBase(0) + arch.Addr(l*arch.LineSize), Busy: 4}
				}
				srcs[i] = &ScriptSource{Refs: refs}
			}
			if err := m.Run(srcs, 10_000_000); err != nil {
				t.Fatal(err)
			}
			cached := 0
			for _, n := range m.Nodes {
				for range n.CPU.Cache.Resident {
					cached++
				}
			}
			if cached != lines*cfg.Nodes {
				t.Fatalf("cached copies = %d, want %d", cached, lines*cfg.Nodes)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := m.CheckCoherence(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("CheckCoherence: %.0f allocations auditing %d cached copies of %d lines, want 0", allocs, cached, lines)
			}
		})
	}
}

// TestCheckCoherenceNamesCorruptFreeList is the pool audit's mutation
// check: after a clean run, one node's free-list head is made to link to
// itself, and CheckCoherence must fail naming that node.
func TestCheckCoherenceNamesCorruptFreeList(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 1 << 20
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]cpu.RefSource, cfg.Nodes)
	for i := range srcs {
		srcs[i] = &ScriptSource{Refs: []cpu.Ref{
			{Kind: arch.RefRead, Addr: cfg.NodeBase(2) + arch.Addr(i*arch.LineSize), Busy: 4},
		}}
	}
	if err := m.Run(srcs, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	pp := m.Nodes[2].Magic.PP
	head := pp.Reg(protocol.FreeHeadReg)
	*pp.Mem.Word(uint64(m.Prog.Layout.PtrBase)/8 + head) = head << protocol.NextPos
	err = m.CheckCoherence()
	if err == nil || !strings.HasPrefix(err.Error(), "node 2: ") || !strings.Contains(err.Error(), "free list") {
		t.Fatalf("CheckCoherence after corrupting node 2's free list = %v; want a node 2 free-list error", err)
	}
}

// TestCheckCoherenceNamesLowestBadLine corrupts eight cached lines after a
// clean run, marking each Modified at a node that does not own it, and
// requires every audit to name the lowest of them: the same machine state
// must give the same error.
func TestCheckCoherenceNamesLowestBadLine(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		t.Run(kind.String(), func(t *testing.T) {
			const lines = 8
			cfg := arch.DefaultConfig()
			cfg.Kind = kind
			cfg.Nodes = 4
			cfg.MemBytesPerNode = 1 << 20
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]cpu.Ref, lines)
			for l := range refs {
				refs[l] = cpu.Ref{Kind: arch.RefRead, Addr: cfg.NodeBase(2) + arch.Addr(l*arch.LineSize), Busy: 4}
			}
			srcs := make([]cpu.RefSource, cfg.Nodes)
			for i := range srcs {
				srcs[i] = &ScriptSource{}
			}
			srcs[1] = &ScriptSource{Refs: refs}
			if err := m.Run(srcs, 1_000_000); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckCoherence(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			first := uint64(cfg.NodeBase(2)) >> arch.LineShift
			for l := range uint64(lines) {
				m.Nodes[1].CPU.Cache.SetState(first+l, cpu.Modified)
			}
			want := fmt.Sprintf("line %#x: clean in directory but Modified at [1]", first)
			for range 30 {
				if err := m.CheckCoherence(); err == nil || err.Error() != want {
					t.Fatalf("CheckCoherence = %v, want %q", err, want)
				}
			}
		})
	}
}

// FuzzCheckCoherence corrupts a post-medley 4-node machine — FLASH
// dynptr, FLASH bitvec or ideal, picked by the first byte — and requires
// the in-place audit to return exactly the reference audit's error, nil
// whenever the reference finds nothing. Each following triple is one
// corruption of one line (a selector picks it among the medley's lines and
// two untouched lines per home, which no cache holds): a cached copy's
// state set (Invalid drops it, so a medley line's entry can be left with
// no copy), a copy filled at a node, or a directory entry changed (a FLASH
// header bit flipped, untouched lines' headers included; on ideal a flag
// toggled, the owner moved, the acks bumped or a sharer dropped, untouched
// lines' entries included). The corruptions are undone in reverse order
// after the audit, and the restored machine must audit clean.
func FuzzCheckCoherence(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0x05})
	f.Add([]byte{1, 1, 7, 0x08, 2, 20, 1})
	f.Add([]byte{2, 2, 5, 2, 0, 30, 0x0a})
	f.Add([]byte{0, 2, 14, 3, 2, 14, 4, 1, 40, 0x06})
	f.Add([]byte{1, 2, 9, 40, 0, 9, 0x01})
	f.Add([]byte{2, 1, 11, 0x07, 2, 33, 5})
	// Directory-only corruptions of lines no cache holds: an untouched
	// line's FLASH header left pending, with an ack outstanding, or dirty;
	// on ideal, a medley line shared by nodes 1 and 2 has both copies
	// dropped and its entry made pending, given an ack, or made dirty.
	f.Add([]byte{0, 2, 48, protocol.BPending})
	f.Add([]byte{1, 2, 51, protocol.BVAckPos})
	f.Add([]byte{0, 2, 54, protocol.BDirty})
	f.Add([]byte{2, 0, 3, 1, 0, 3, 2, 2, 3, 0})
	f.Add([]byte{2, 0, 3, 1, 0, 3, 2, 2, 3, 3})
	f.Add([]byte{2, 0, 3, 1, 0, 3, 2, 2, 3, 1})
	var machines [3]*Machine
	var lines []uint64
	for i, mc := range auditMachines {
		machines[i] = newAuditMachine(f, mc.kind, mc.proto)
		runMedley(f, machines[i])
	}
	for h := range 4 {
		for k := range medleyLines {
			lines = append(lines, medleyLine(machines[0], h, k))
		}
	}
	for h := range 4 {
		for k := range 2 {
			lines = append(lines, medleyLine(machines[0], h, medleyLines+k))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		m := machines[int(in[0])%len(machines)]
		var undo []func()
		defer func() {
			for i := len(undo) - 1; i >= 0; i-- {
				undo[i]()
			}
			if err := m.CheckCoherence(); err != nil {
				t.Fatalf("machine not restored: %v", err)
			}
		}()
		in = in[1:min(len(in), 1+3*16)]
		for k := 0; k+2 < len(in); k += 3 {
			op, line, arg := in[k]%3, lines[int(in[k+1])%len(lines)], in[k+2]
			c := m.Nodes[arg%4].CPU.Cache
			switch op {
			case 0: // set a copy's state
				had := c.SetState(line, cpu.LineState(arg>>2%3))
				switch {
				case had == cpu.Invalid:
				case c.Probe(line) == cpu.Invalid:
					undo = append(undo, func() { c.Fill(line, had) })
				default:
					undo = append(undo, func() { c.SetState(line, had) })
				}
			case 1: // fill a copy
				had := c.Probe(line)
				victim, vs, evicted := c.Fill(line, cpu.Shared+cpu.LineState(arg>>2&1))
				undo = append(undo, func() {
					if had != cpu.Invalid {
						c.SetState(line, had)
						return
					}
					c.SetState(line, cpu.Invalid)
					if evicted {
						c.Fill(victim, vs)
					}
				})
			case 2: // change the directory entry
				if m.Prog != nil {
					// A flipped sharer-list head could index past the
					// pool: flip a flag bit instead.
					w, bit := dirWord(m, line), uint(arg%64)
					if m.Prog.Layout.Proto == arch.ProtoDynPtr && bit >= protocol.HeadPos && bit < protocol.HeadPos+protocol.HeadW {
						bit %= protocol.HeadPos
					}
					*w ^= 1 << bit
					undo = append(undo, func() { *w ^= 1 << bit })
					break
				}
				saved := idealEntry(m, line, func(e *protocol.DirInfo) {
					switch arg % 6 {
					case 0:
						e.Pending = !e.Pending
					case 1:
						e.Dirty = !e.Dirty
					case 2:
						e.Local = !e.Local
					case 3:
						e.Acks++
					case 4:
						e.Owner = (e.Owner + 1 + arch.NodeID(arg>>3)%3) % 4
					case 5:
						if len(e.Sharers) > 0 {
							e.Sharers = slices.Delete(e.Sharers, int(arg>>3)%len(e.Sharers), int(arg>>3)%len(e.Sharers)+1)
						}
					}
				})
				undo = append(undo, func() { idealEntry(m, line, func(e *protocol.DirInfo) { *e = saved }) })
			}
		}
		sameAudit(t, m)
	})
}
