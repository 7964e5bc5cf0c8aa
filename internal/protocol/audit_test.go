package protocol_test

import (
	"fmt"
	"testing"

	"flashsim/internal/apps"
	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/memsys"
	"flashsim/internal/protocol"
	"flashsim/internal/workload"
)

// The sparse-aware audits (Layout.FreeCount, Layout.SharerCount) skip
// protocol memory no handler wrote. These tests hold them to the dense
// entry-by-entry and line-by-line walks they replaced, kept here as the
// reference.

// dump reads a node's whole protocol memory into a dense image.
func dump(lay protocol.Layout, mem *memsys.Store) []uint64 {
	d := make([]uint64, lay.MemBytes/8)
	for i := range d {
		d[i] = mem.Load(uint64(i))
	}
	return d
}

// denseFreeCount is the entry-by-entry free-list walk over a dense image.
func denseFreeCount(lay protocol.Layout, mem []uint64, head uint64) (int, error) {
	n := 0
	for head != protocol.NullPtr {
		if n > int(lay.PoolSize) {
			return n, fmt.Errorf("free list cycle")
		}
		e := mem[uint64(lay.PtrBase)/8+head]
		head = e >> protocol.NextPos & (1<<protocol.NextW - 1)
		n++
	}
	return n, nil
}

// denseSharerCount decodes every local line of a dense image.
func denseSharerCount(t *testing.T, lay protocol.Layout, mem []uint64, nlines uint64) int {
	t.Helper()
	// Decode reads through a store; give it one holding the dense image.
	s := memsys.NewStore(len(mem))
	for i, v := range mem {
		if v != 0 {
			*s.Word(uint64(i)) = v
		}
	}
	n := 0
	for l := uint64(0); l < nlines; l++ {
		d, err := lay.Decode(s, l)
		if err != nil {
			t.Fatalf("line %d: %v", l, err)
		}
		n += len(d.Sharers)
	}
	return n
}

// TestFreeCountMatchesDenseWalk crafts free lists that cross pristine and
// written chunks — fresh, partly consumed, rethreaded, cyclic through a
// pristine run, pointing outside the pool — and requires the count and the
// error outcome of the dense walk.
func TestFreeCountMatchesDenseWalk(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.MemBytesPerNode = 1 << 20
	lay := protocol.NewLayout(&cfg)
	const chunkWords = 64 << 10 / 8
	pool := uint64(lay.PoolSize)
	if pool < 3*chunkWords {
		t.Fatalf("pool of %d entries spans fewer than three chunks", pool)
	}
	entry := func(next uint64) uint64 { return next << protocol.NextPos }
	ptr := uint64(lay.PtrBase) / 8

	cases := []struct {
		name  string
		head  uint64
		write map[uint64]uint64 // pool entry index -> value
	}{
		{name: "pristine", head: 0},
		{name: "pristine from the middle", head: chunkWords + 17},
		{name: "empty", head: protocol.NullPtr},
		{name: "last entry only", head: pool - 1},
		{name: "consumed prefix", head: 40, write: map[uint64]uint64{3: entry(protocol.NullPtr) | 7}},
		{name: "released entries rethreaded", head: 5, write: map[uint64]uint64{
			5: entry(2), 2: entry(2*chunkWords + 9), 2*chunkWords + 9: entry(100)}},
		{name: "written chunk in the middle", head: 0, write: map[uint64]uint64{
			chunkWords + 1: entry(chunkWords + 2)}},
		{name: "truncated in a written chunk", head: 0, write: map[uint64]uint64{
			2 * chunkWords: entry(protocol.NullPtr)}},
		{name: "cycle through a pristine run", head: 0, write: map[uint64]uint64{
			2 * chunkWords: entry(0)}},
		{name: "cycle inside a written chunk", head: 0, write: map[uint64]uint64{
			10: entry(9)}},
		{name: "self loop at the last entry", head: pool - 1, write: map[uint64]uint64{
			pool - 1: entry(pool - 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := memsys.NewStore(int(lay.MemBytes / 8))
			lay.InitMemory(mem, 0, 0, cfg.Nodes)
			for idx, v := range tc.write {
				*mem.Word(ptr + idx) = v
			}
			want, wantErr := denseFreeCount(lay, dump(lay, mem), tc.head)
			got, err := lay.FreeCount(mem, tc.head)
			if got != want || (err != nil) != (wantErr != nil) {
				t.Errorf("FreeCount = %d, %v; dense walk = %d, %v", got, err, want, wantErr)
			}
		})
	}

	mem := memsys.NewStore(int(lay.MemBytes / 8))
	lay.InitMemory(mem, 0, 0, cfg.Nodes)
	if _, err := lay.FreeCount(mem, pool); err == nil {
		t.Error("a head outside the pool was accepted")
	}
}

// TestPoolAuditMatchesDenseOnRunMachine runs an application to completion
// under each protocol and compares, on every node, the sparse audits'
// free and in-use counts with the dense walks over the same memory.
func TestPoolAuditMatchesDenseOnRunMachine(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := arch.DefaultConfig()
			cfg.Nodes = 4
			cfg.MemBytesPerNode = 4 << 20
			cfg.Protocol = proto
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.NewWorld(m)
			a, err := apps.Build("radix", w, apps.Params{Procs: cfg.Nodes, Scale: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(a.Run, 0); err != nil {
				t.Fatal(err)
			}
			if err := m.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
			lay := m.Prog.Layout
			nlines := uint64(cfg.MemBytesPerNode / arch.LineSize)
			total := 0
			for i, n := range m.Nodes {
				mem := n.Magic.PP.Mem
				dense := dump(lay, mem)
				inUse, err := lay.SharerCount(mem, nlines)
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				if want := denseSharerCount(t, lay, dense, nlines); inUse != want {
					t.Errorf("node %d: SharerCount = %d, dense walk = %d", i, inUse, want)
				}
				total += inUse
				if proto != arch.ProtoDynPtr {
					continue // no pointer pool
				}
				head := n.Magic.PP.Reg(protocol.FreeHeadReg)
				free, err := lay.FreeCount(mem, head)
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				want, err := denseFreeCount(lay, dense, head)
				if err != nil {
					t.Fatalf("node %d: dense walk: %v", i, err)
				}
				if free != want {
					t.Errorf("node %d: FreeCount = %d, dense walk = %d", i, free, want)
				}
				if free+inUse != int(lay.PoolSize) {
					t.Errorf("node %d: free %d + in-use %d != pool %d", i, free, inUse, lay.PoolSize)
				}
			}
			if total == 0 {
				t.Error("no sharers recorded anywhere after the run; the comparison is vacuous")
			}
		})
	}
}
