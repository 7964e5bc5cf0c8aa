package ideal

import (
	"slices"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/protocol"
)

// sharers decodes local line l's sharer list.
func (d *directory) sharers(l uint64) []arch.NodeID {
	var out protocol.DirInfo
	d.decode(d.peek(l), &out)
	return out.Sharers
}

// poolAccounted reports whether every pool cell but cells[0] is on exactly
// one of the given lines' sharer lists or on the free list.
func (d *directory) poolAccounted(lines []uint64) bool {
	seen := make([]bool, len(d.cells))
	mark := func(i uint32) bool {
		for ; i != 0; i = d.cells[i].next {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	for _, l := range lines {
		if !mark(d.peek(l).head()) {
			return false
		}
	}
	if !mark(d.free) {
		return false
	}
	return len(d.cells) == 0 || !slices.Contains(seen[1:], false)
}

// TestSharerListOrder pins the sharer list's order, which getx's
// invalidations follow: appends keep insertion order, a duplicate append
// changes nothing, a delete closes the gap, and a re-inserted sharer goes
// to the tail. Repeated share/invalidate and share/replace cycles reuse
// freed cells: the pool stops growing after the first cycle.
func TestSharerListOrder(t *testing.T) {
	var d directory
	e := d.at(700)
	for _, n := range []arch.NodeID{5, 2, 9, 7, 2} {
		d.addSharer(e, n)
	}
	if got, want := d.sharers(700), []arch.NodeID{5, 2, 9, 7}; !slices.Equal(got, want) {
		t.Fatalf("after appends: sharers %v, want %v", got, want)
	}
	d.removeSharer(e, 2)
	d.removeSharer(e, 3) // absent: no change
	if got, want := d.sharers(700), []arch.NodeID{5, 9, 7}; !slices.Equal(got, want) {
		t.Fatalf("after delete: sharers %v, want %v", got, want)
	}
	d.addSharer(e, 2)
	d.removeSharer(e, 5)
	d.addSharer(e, 5)
	if got, want := d.sharers(700), []arch.NodeID{9, 7, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("after re-inserts: sharers %v, want %v", got, want)
	}
	if len(d.pages) != 2 || d.pages[0] != nil || d.pages[1] == nil {
		t.Fatalf("line 700 touched pages %v, want only page 1", d.pages)
	}

	d.clearSharers(e)
	other := d.at(3)
	d.addSharer(other, 1)
	var grown int
	for cycle := range 100 {
		for n := range arch.NodeID(16) {
			d.addSharer(e, (n+arch.NodeID(cycle))%16)
		}
		if cycle%2 == 0 {
			d.clearSharers(e)
		} else {
			for n := range arch.NodeID(16) {
				d.removeSharer(e, n)
			}
		}
		if cycle == 0 {
			grown = len(d.cells)
		}
		if len(d.cells) != grown {
			t.Fatalf("cycle %d: pool %d cells, was %d after the first cycle", cycle, len(d.cells), grown)
		}
	}
	if got := d.sharers(3); !slices.Equal(got, []arch.NodeID{1}) {
		t.Fatalf("line 3's sharers %v, want [1]", got)
	}
	if !d.poolAccounted([]uint64{3, 700}) {
		t.Fatal("pool cells lost or shared between lists")
	}
}

// FuzzSharerList drives the sharer lists of three lines, two in one page,
// through appends, deletes and clears, and after every operation requires
// each list to equal a []NodeID model (appends at the tail unless present,
// deletes close the gap), every pool cell to be on exactly one list or the
// free list, and the pool never to hold more cells than the lists held at
// their fullest.
func FuzzSharerList(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 0, 5, 1, 5, 0, 5})
	f.Add([]byte{0, 1, 4, 2, 8, 3, 2, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 7, 4, 7, 8, 7, 2, 0, 6, 0, 10, 0})
	lines := []uint64{0, 1, pageLines + 4}
	f.Fuzz(func(t *testing.T, in []byte) {
		var d directory
		model := make([][]arch.NodeID, len(lines))
		peak := 0
		for k := 0; k+1 < len(in); k += 2 {
			op, li, n := in[k]%3, int(in[k]>>2)%len(lines), arch.NodeID(in[k+1]%32)
			e := d.at(lines[li])
			switch op {
			case 0:
				d.addSharer(e, n)
				if !slices.Contains(model[li], n) {
					model[li] = append(model[li], n)
				}
			case 1:
				d.removeSharer(e, n)
				if i := slices.Index(model[li], n); i >= 0 {
					model[li] = slices.Delete(model[li], i, i+1)
				}
			case 2:
				d.clearSharers(e)
				model[li] = model[li][:0]
			}
			live := 0
			for i, l := range lines {
				if got := d.sharers(l); !slices.Equal(got, model[i]) {
					t.Fatalf("op %d: line %d sharers %v, model %v", k/2, l, got, model[i])
				}
				live += len(model[i])
			}
			peak = max(peak, live)
			if !d.poolAccounted(lines) {
				t.Fatalf("op %d: pool cells lost or shared between lists", k/2)
			}
			if len(d.cells) > 1+peak {
				t.Fatalf("op %d: pool %d cells, lists held at most %d", k/2, len(d.cells), peak)
			}
		}
	})
}
