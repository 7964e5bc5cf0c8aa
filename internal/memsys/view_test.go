package memsys

import "testing"

// viewIdx are the words FuzzViewLog addresses: groups that share a filter
// bit (i&255 equal: 0/256/512/8192, 1/257/8193, 255/511), neighbors that
// do not, words in five different store pages and in three regions.
var viewIdx = []uint64{0, 256, 512, 8192, 1, 257, 8193, 255, 511, 63, 64, 2, 8191, 16385}

// refView is View's specification: a map of published words plus the list
// of pending writes, in program order.
type refView struct {
	shared       map[uint64]uint64
	pending      []writeRec
	writeThrough bool
}

func (r *refView) load(i uint64) uint64 {
	for j := len(r.pending) - 1; j >= 0; j-- {
		if r.pending[j].idx == i {
			return r.pending[j].val
		}
	}
	return r.shared[i]
}

// FuzzViewLog drives a View and refView through the same Store, Load,
// Flush, Reset and SetWriteThrough sequence. Every Load must agree,
// Pending must be the reference's pending count, the shared store must
// hold the reference's published words, and the filter must hold exactly
// the bits of the logged words: a stale bit leaves Load correct but sends
// it back to scanning the log. Each pair of bytes is an operation and a
// word; go test runs the seed corpus.
func FuzzViewLog(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 1, 0, 0, 3, 0, 0, 1, 0, 0})            // one filter bit, two words
	f.Add([]byte{1, 4, 2, 4, 0, 4, 0, 5, 3, 0, 0, 5, 1, 6, 0, 4})      // rewrites, flush, neighbor
	f.Add([]byte{1, 7, 1, 8, 4, 0, 0, 7, 0, 8, 1, 8, 3, 0, 0, 8})      // Reset drops the log
	f.Add([]byte{5, 0, 1, 2, 0, 2, 0, 3, 1, 13, 6, 0, 1, 2, 0, 2})     // write-through, then back
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 3, 0, 0, 0, 0, 1, 0, 2})      // flush clears all bits
	f.Add([]byte{2, 9, 2, 10, 0, 11, 2, 11, 0, 12, 3, 0, 0, 9, 0, 10}) // 63/64: adjacent filter words
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewStore(3 * regionWords)
		v := NewView(s)
		ref := &refView{shared: map[uint64]uint64{}}
		for k := 0; k+1 < len(ops); k += 2 {
			i := viewIdx[int(ops[k+1])%len(viewIdx)]
			x := uint64(k)<<8 | uint64(ops[k+1])
			// kind: 0 Load, 1-2 Store, 3 Flush, 4 Reset, 5 write-through
			// on, 6 write-through off.
			switch ops[k] % 7 {
			case 0:
				if got, want := v.Load(i), ref.load(i); got != want {
					t.Fatalf("op %d: Load(%d) = %d, reference %d", k/2, i, got, want)
				}
			case 1, 2:
				v.Store(i, x)
				if ref.writeThrough {
					ref.shared[i] = x
				} else {
					ref.pending = append(ref.pending, writeRec{i, x})
				}
			case 3:
				v.Flush()
				for _, w := range ref.pending {
					ref.shared[w.idx] = w.val
				}
				ref.pending = ref.pending[:0]
			case 4:
				v.Reset()
				ref.pending = ref.pending[:0]
			default:
				wt := ops[k]%7 == 5
				v.SetWriteThrough(wt)
				ref.writeThrough = wt
			}
			if v.Pending() != len(ref.pending) {
				t.Fatalf("op %d: Pending = %d, reference %d", k/2, v.Pending(), len(ref.pending))
			}
			var filter [4]uint64
			for _, w := range v.log {
				filter[w.idx>>6&3] |= 1 << (w.idx & 63)
			}
			if v.filter != filter {
				t.Fatalf("op %d: filter %x, logged words give %x", k/2, v.filter, filter)
			}
			for _, w := range viewIdx {
				if got, want := s.Load(w), ref.shared[w]; got != want {
					t.Fatalf("op %d: shared word %d = %d, reference %d", k/2, w, got, want)
				}
			}
		}
	})
}
