package cpu

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"flashsim/internal/arch"
)

func TestCacheFillLookup(t *testing.T) {
	c := NewCache(4096, 2) // 16 sets
	if st := c.Lookup(5); st != Invalid {
		t.Fatalf("empty cache hit: %v", st)
	}
	c.Fill(5, Shared)
	if st := c.Lookup(5); st != Shared {
		t.Fatalf("state = %v, want S", st)
	}
	c.Fill(5, Modified) // upgrade in place
	if st := c.Lookup(5); st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
	if l := lines(c); len(l) != 1 {
		t.Fatalf("lines = %v", l)
	}
}

// lines collects the cache's resident lines and their states.
func lines(c *Cache) map[uint64]LineState {
	out := make(map[uint64]LineState)
	for l, s := range c.Resident {
		if _, dup := out[l]; dup {
			panic("cpu: line resident twice")
		}
		out[l] = s
	}
	return out
}

// checkResident requires got's resident lines to equal the reference's,
// and Probe to agree with them on every resident line and on line.
func checkResident(t *testing.T, op int, got *Cache, want *stampCache, line uint64) {
	t.Helper()
	g, w := lines(got), want.Lines()
	if !maps.Equal(g, w) {
		t.Fatalf("op %d: resident lines = %v, reference %v", op, g, w)
	}
	for l, s := range w {
		if p := got.Probe(l); p != s {
			t.Fatalf("op %d: Probe(%d) = %v, reference %v", op, l, p, s)
		}
	}
	if p := got.Probe(line); p != w[line] {
		t.Fatalf("op %d: Probe(%d) = %v, reference %v", op, line, p, w[line])
	}
}

func TestCacheProbeKeepsRecency(t *testing.T) {
	c := NewCache(4096, 2) // 16 sets: lines 1, 17, 33 share set 1
	c.Fill(1, Shared)
	c.Fill(17, Modified)
	if s := c.Probe(1); s != Shared {
		t.Fatalf("Probe(1) = %v, want S", s)
	}
	if s := c.Probe(33); s != Invalid {
		t.Fatalf("Probe(33) = %v, want I", s)
	}
	// Line 1 stays least recently used, so the next fill evicts it.
	if victim, _, evicted := c.Fill(33, Shared); !evicted || victim != 1 {
		t.Fatalf("evicted %v %d, want line 1: Probe touched recency", evicted, victim)
	}
}

func TestCacheResidentAllocatesNothing(t *testing.T) {
	c := NewCache(1<<20, 2)
	for l := range uint64(4096) {
		c.Fill(l*37, Shared)
	}
	n := 0
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		for range c.Resident {
			n++
		}
	})
	if n != 4096 || allocs != 0 {
		t.Fatalf("Resident yielded %d lines with %.0f allocations, want 4096 with 0", n, allocs)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(4096, 2) // 16 sets: lines 1, 17, 33 share set 1
	c.Fill(1, Shared)
	c.Fill(17, Modified)
	c.Lookup(1) // touch 1: now 17 is LRU
	victim, vstate, evicted := c.Fill(33, Shared)
	if !evicted || victim != 17 || vstate != Modified {
		t.Fatalf("evicted %v %d %v, want 17 M", evicted, victim, vstate)
	}
	if c.Lookup(1) == Invalid || c.Lookup(33) == Invalid {
		t.Fatal("resident lines lost")
	}
	if c.Lookup(17) != Invalid {
		t.Fatal("victim still resident")
	}
}

func TestCacheSetStateInvalidate(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(9, Modified)
	if had := c.SetState(9, Shared); had != Modified {
		t.Fatalf("had = %v, want M", had)
	}
	if had := c.SetState(9, Invalid); had != Shared {
		t.Fatalf("had = %v, want S", had)
	}
	if c.Lookup(9) != Invalid {
		t.Fatal("line still resident after invalidate")
	}
	if had := c.SetState(9, Invalid); had != Invalid {
		t.Fatalf("non-resident SetState = %v, want I", had)
	}
}

func TestSameSet(t *testing.T) {
	c := NewCache(4096, 2)
	if !c.SameSet(1, 17) || c.SameSet(1, 2) {
		t.Fatal("set mapping wrong")
	}
}

// Property: the cache never holds more lines per set than its
// associativity, and a filled line is always immediately visible.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := NewCache(2048, 2) // 8 sets
		for _, l := range lines {
			line := uint64(l)
			c.Fill(line, Shared)
			if c.Lookup(line) == Invalid {
				return false
			}
		}
		perSet := map[int]int{}
		for l := range c.Resident {
			perSet[int(l%8)]++
		}
		for _, n := range perSet {
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stampCache is the reference LRU cache: per-way tags, states and
// last-use stamps from a global clock, victim = smallest stamp. Cache must
// return exactly what it returns for every operation sequence.
type stampCache struct {
	ways, sets int
	tags       []uint64 // line | 1<<63 per way; 0 = empty
	state      []LineState
	lastUsed   []uint64
	clock      uint64
}

func newStampCache(size, ways int) *stampCache {
	n := size / arch.LineSize
	return &stampCache{ways: ways, sets: n / ways,
		tags: make([]uint64, n), state: make([]LineState, n), lastUsed: make([]uint64, n)}
}

// find returns the index of line's way, or of the set's first way and false.
func (c *stampCache) find(line uint64) (int, bool) {
	base := int(line%uint64(c.sets)) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == line|1<<63 {
			return i, true
		}
	}
	return base, false
}

func (c *stampCache) Lookup(line uint64) LineState {
	i, ok := c.find(line)
	if !ok || c.state[i] == Invalid {
		return Invalid
	}
	c.clock++
	c.lastUsed[i] = c.clock
	return c.state[i]
}

func (c *stampCache) SetState(line uint64, s LineState) LineState {
	i, ok := c.find(line)
	if !ok {
		return Invalid
	}
	had := c.state[i]
	if s == Invalid {
		c.tags[i] = 0
	}
	c.state[i] = s
	return had
}

func (c *stampCache) Fill(line uint64, s LineState) (victim uint64, vs LineState, evicted bool) {
	i, ok := c.find(line)
	if !ok {
		lru := i
		for w := i; w < i+c.ways && !ok; w++ {
			if c.tags[w] == 0 {
				i, ok = w, true
			} else if c.lastUsed[w] < c.lastUsed[lru] {
				lru = w
			}
		}
		if !ok {
			i = lru
			victim, vs, evicted = c.tags[i]&^(1<<63), c.state[i], true
		}
	}
	c.clock++
	c.tags[i], c.state[i], c.lastUsed[i] = line|1<<63, s, c.clock
	return victim, vs, evicted
}

func (c *stampCache) Lines() map[uint64]LineState {
	out := make(map[uint64]LineState)
	for i, tag := range c.tags {
		if tag != 0 && c.state[i] != Invalid {
			out[tag&^(1<<63)] = c.state[i]
		}
	}
	return out
}

// FuzzCacheLRU drives Cache and the stamp reference through the same
// Lookup, Fill and SetState sequence — 1, 2 or 4 ways over four sets, lines
// 0..31 so every set sees evictions — and requires every return value and
// the resident lines (Resident, and Probe of each) to agree after each
// operation. The first byte picks the associativity; each following pair
// is an operation and a line.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 0x10, 1, 0x10, 5, 0x20, 1, 0x00, 1})                             // 1 way: fill, conflict, lookup
	f.Add([]byte{1, 0x10, 0, 0x10, 4, 0x10, 8, 0x00, 0, 0x10, 12, 0x30, 4, 0x10, 8}) // 2 ways, line 0
	f.Add([]byte{2, 0x10, 1, 0x10, 5, 0x10, 9, 0x10, 13, 0x00, 1, 0x10, 17, 0x00, 5, 0x10, 21})
	// Invalidate then refill: the freed way is reused, not the LRU one.
	f.Add([]byte{1, 0x10, 2, 0x10, 6, 0x30, 2, 0x10, 10, 0x10, 14, 0x00, 6, 0x10, 2})
	f.Add([]byte{2, 0x10, 3, 0x10, 7, 0x10, 11, 0x10, 15, 0x40, 7, 0x00, 3, 0x10, 19, 0x10, 23, 0x20, 11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		ways := 1 << (ops[0] % 3)
		size := 4 * ways * arch.LineSize
		got, want := NewCache(size, ways), newStampCache(size, ways)
		for k := 1; k+1 < len(ops); k += 2 {
			// kind: 0 Lookup, 1 Fill Shared, 2 Fill Modified,
			// 3 SetState Invalid, 4 SetState Shared, 5 SetState Modified.
			kind, line := ops[k]>>4%6, uint64(ops[k+1]%32)
			switch {
			case kind == 0:
				if g, w := got.Lookup(line), want.Lookup(line); g != w {
					t.Fatalf("op %d: Lookup(%d) = %v, reference %v", k/2, line, g, w)
				}
			case kind <= 2:
				s := LineState(kind)
				gv, gs, ge := got.Fill(line, s)
				wv, ws, we := want.Fill(line, s)
				if gv != wv || gs != ws || ge != we {
					t.Fatalf("op %d: Fill(%d, %v) = %d %v %v, reference %d %v %v", k/2, line, s, gv, gs, ge, wv, ws, we)
				}
			default:
				s := LineState(kind - 3)
				if g, w := got.SetState(line, s), want.SetState(line, s); g != w {
					t.Fatalf("op %d: SetState(%d, %v) = %v, reference %v", k/2, line, s, g, w)
				}
			}
			checkResident(t, k/2, got, want, line)
		}
	})
}

// clone deep-copies the reference, for CaptureState.
func (c *stampCache) clone() *stampCache {
	d := *c
	d.tags, d.state, d.lastUsed = slices.Clone(c.tags), slices.Clone(c.state), slices.Clone(c.lastUsed)
	return &d
}

// groupGeometries are FuzzCacheGroups' caches: the 1 MB processor cache
// (16 set groups), the 64 KB MDC (one full group), a 4-way and a 3-way cache
// over several groups, and radix's 4 KB cache, smaller than one group.
var groupGeometries = []struct{ size, ways int }{
	{1 << 20, 2}, {64 << 10, 2}, {256 << 10, 4}, {384 << 10, 3}, {4 << 10, 2},
}

// FuzzCacheGroups drives a set-grouped Cache and the stamp reference
// through Lookup, Fill, SetState, CaptureState and RestoreState (of either
// of two captures, or of the zero state) on caches of several set groups
// and on one smaller than a group, with lines spread across every group.
// After each operation every return value, the resident lines (Resident,
// and Probe of each) and the materialized group count (the groups filled
// since the last restore, or those of the restored capture) must agree
// with the reference, and the shared zero group must still be all zero.
// The first byte picks the geometry; each following triple is an
// operation, a set selector and a tag.
func FuzzCacheGroups(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 255, 1, 0, 0, 0, 6, 0, 0, 3, 0, 0, 7, 0, 0, 0, 0, 0, 7, 0, 0})
	f.Add([]byte{1, 1, 8, 0, 2, 8, 1, 1, 8, 2, 0, 8, 0, 6, 1, 0, 7, 2, 0, 7, 1, 0, 0, 8, 0})
	f.Add([]byte{2, 1, 3, 0, 1, 3, 1, 1, 3, 2, 1, 3, 3, 1, 3, 4, 6, 0, 0, 5, 3, 1, 7, 0, 0, 7, 0, 0})
	f.Add([]byte{3, 1, 200, 0, 1, 100, 1, 2, 50, 2, 1, 200, 3, 6, 0, 0, 4, 200, 0, 7, 2, 0, 1, 7, 7})
	f.Add([]byte{4, 1, 1, 0, 1, 1, 1, 1, 1, 2, 6, 1, 0, 3, 1, 1, 7, 1, 0, 7, 1, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// Each operation compares every line of a cache of up to 8,192
		// ways, so a long input would stall the search: keep 256.
		ops = ops[:min(len(ops), 1+3*256)]
		geo := groupGeometries[int(ops[0])%len(groupGeometries)]
		got, want := NewCache(geo.size, geo.ways), newStampCache(geo.size, geo.ways)
		sets := uint64(want.sets)
		gsets := got.gmask + 1
		filled := map[uint64]bool{} // the groups the reference filled
		type capture struct {
			st     CacheState
			ref    *stampCache
			filled map[uint64]bool
		}
		var caps [2]*capture
		for k := 1; k+2 < len(ops); k += 3 {
			// kind: 0 Lookup, 1 Fill Shared, 2 Fill Modified,
			// 3 SetState Invalid, 4 SetState Shared, 5 SetState Modified,
			// 6 CaptureState into slot sel&1, 7 RestoreState of slot sel%3
			// (2 = the zero state).
			kind, sel := ops[k]%8, ops[k+1]
			// Spread the 256 selectors over every group, eight
			// neighbouring sets at a time, with four tags per set.
			set := (uint64(sel>>3)*(sets/32+1) + uint64(sel&7)) & (sets - 1)
			line := uint64(ops[k+2]%4)*sets + set
			switch {
			case kind == 0:
				if g, w := got.Lookup(line), want.Lookup(line); g != w {
					t.Fatalf("op %d: Lookup(%d) = %v, reference %v", k/3, line, g, w)
				}
			case kind <= 2:
				s := LineState(kind)
				gv, gs, ge := got.Fill(line, s)
				wv, ws, we := want.Fill(line, s)
				if gv != wv || gs != ws || ge != we {
					t.Fatalf("op %d: Fill(%d, %v) = %d %v %v, reference %d %v %v", k/3, line, s, gv, gs, ge, wv, ws, we)
				}
				filled[set/gsets] = true
			case kind <= 5:
				s := LineState(kind - 3)
				if g, w := got.SetState(line, s), want.SetState(line, s); g != w {
					t.Fatalf("op %d: SetState(%d, %v) = %v, reference %v", k/3, line, s, g, w)
				}
			case kind == 6:
				caps[sel&1] = &capture{got.CaptureState(), want.clone(), maps.Clone(filled)}
			case sel%3 == 2 || caps[sel%3] == nil:
				got.RestoreState(CacheState{})
				want, filled = newStampCache(geo.size, geo.ways), map[uint64]bool{}
			default:
				c := caps[sel%3]
				got.RestoreState(c.st)
				want, filled = c.ref.clone(), maps.Clone(c.filled)
			}
			if zeroGroup != [groupWords]uint64{} {
				t.Fatalf("op %d: the shared zero group was written", k/3)
			}
			checkResident(t, k/3, got, want, line)
			if g := got.Groups(); g != len(filled) {
				t.Fatalf("op %d: %d groups materialized, %d filled", k/3, g, len(filled))
			}
		}
	})
}
