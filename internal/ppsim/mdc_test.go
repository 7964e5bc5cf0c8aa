package ppsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMDCHitMiss(t *testing.T) {
	m := NewMDC(4096, 2) // 16 sets of 128-byte lines
	hit, wb := m.Access(0x100, false)
	if hit || wb {
		t.Fatalf("cold access: hit=%v wb=%v", hit, wb)
	}
	hit, _ = m.Access(0x108, false) // same line
	if !hit {
		t.Fatal("same-line access missed")
	}
	if m.Stats.Reads != 2 || m.Stats.ReadMisses != 1 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestMDCWritebackOnDirtyEviction(t *testing.T) {
	m := NewMDC(4096, 2) // 16 sets: lines 0x00, 0x10, 0x20 share set 0
	m.Access(0<<7, true) // dirty
	m.Access(16<<7, false)
	_, wb := m.Access(32<<7, false) // evicts the LRU (the dirty line 0)
	if !wb {
		t.Fatal("dirty eviction did not write back")
	}
	if m.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", m.Stats.Writebacks)
	}
	// Clean evictions do not.
	m2 := NewMDC(4096, 2)
	m2.Access(0<<7, false)
	m2.Access(16<<7, false)
	if _, wb := m2.Access(32<<7, false); wb {
		t.Fatal("clean eviction wrote back")
	}
}

func TestMDCLRU(t *testing.T) {
	m := NewMDC(4096, 2)
	m.Access(0<<7, false)
	m.Access(16<<7, false)
	m.Access(0<<7, false)  // touch line 0: line 16 is now LRU
	m.Access(32<<7, false) // evicts 16
	if hit, _ := m.Access(0<<7, false); !hit {
		t.Fatal("MRU line evicted")
	}
	if hit, _ := m.Access(16<<7, false); hit {
		t.Fatal("LRU line survived")
	}
}

// Property: an MDC access pattern never reports a hit for a line that was
// never filled, and always hits a line re-accessed immediately.
func TestMDCProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		m := NewMDC(2048, 2)
		seen := map[uint64]bool{}
		for _, a := range addrs {
			addr := uint64(a) << 3
			line := addr >> 7
			hit, _ := m.Access(addr, false)
			if hit && !seen[line] {
				return false // hit on never-filled line
			}
			seen[line] = true
			if h2, _ := m.Access(addr, false); !h2 {
				return false // immediate re-access missed
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refMDC is a reference MDC: per set, the resident lines with a last-use
// stamp and a dirty bit; a miss fills a free way or evicts the stamp-oldest.
type refMDC struct {
	sets, ways int
	now        uint64
	lines      []map[uint64]*refLine // per set
	stats      MDCStats
}

type refLine struct {
	stamp uint64
	dirty bool
}

func newRefMDC(size, ways int) *refMDC {
	r := &refMDC{sets: size / (128 * ways), ways: ways}
	for i := 0; i < r.sets; i++ {
		r.lines = append(r.lines, map[uint64]*refLine{})
	}
	return r
}

func (r *refMDC) access(a uint64, isWrite bool) (hit, writeback bool) {
	r.now++
	line := a >> 7
	set := r.lines[line%uint64(r.sets)]
	if isWrite {
		r.stats.Writes++
	} else {
		r.stats.Reads++
	}
	if l := set[line]; l != nil {
		l.stamp = r.now
		l.dirty = l.dirty || isWrite
		return true, false
	}
	if isWrite {
		r.stats.WriteMisses++
	} else {
		r.stats.ReadMisses++
	}
	if len(set) == r.ways {
		var old uint64
		first := true
		for k, l := range set {
			if first || l.stamp < set[old].stamp {
				old, first = k, false
			}
		}
		writeback = set[old].dirty
		if writeback {
			r.stats.Writebacks++
		}
		delete(set, old)
	}
	set[line] = &refLine{stamp: r.now, dirty: isWrite}
	return false, writeback
}

// TestMDCMatchesReferenceLRU drives random read/write streams through the
// MDC at 2 and 4 ways and compares hit, miss and writeback on every access,
// and the final counters, with the stamp-LRU reference.
func TestMDCMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{2, 4} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, ref := NewMDC(2048, ways), newRefMDC(2048, ways)
			for i := 0; i < 2000; i++ {
				a := uint64(rng.Intn(64))<<7 | uint64(rng.Intn(16))<<3
				w := rng.Intn(3) == 0
				hit, wb := m.Access(a, w)
				rhit, rwb := ref.access(a, w)
				if hit != rhit || wb != rwb {
					t.Fatalf("ways %d seed %d access %d (%#x write=%v): hit=%v wb=%v, reference hit=%v wb=%v",
						ways, seed, i, a, w, hit, wb, rhit, rwb)
				}
			}
			if m.Stats != ref.stats {
				t.Fatalf("ways %d seed %d: stats %+v, reference %+v", ways, seed, m.Stats, ref.stats)
			}
		}
	}
}
