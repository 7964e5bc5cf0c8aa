// Package cpu models the compute processor and its secondary cache: an
// aggressive 400-MIPS processor with blocking reads, non-blocking merging
// writes and up to four outstanding misses, attached to a two-way
// set-associative write-back cache with 128-byte lines and critical-word-
// first fills (Section 3.2 of the paper).
//
// A cache (the processor's, and the MDC, which package ppsim builds on it)
// keeps its tags in 4 KiB set groups, each allocated on the first fill into
// it. Every never-filled group of every cache in the process is one zero
// group, read by machines running concurrently (an explore sweep's
// workers), so nothing ever writes it: a fill materializes its group
// before writing.
package cpu

import (
	"fmt"
	"math/bits"
	"slices"

	"flashsim/internal/arch"
)

// LineState is a processor-cache line state. Coherence is maintained by the
// directory protocol; the cache itself holds Invalid/Shared/Modified.
type LineState uint8

const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	default:
		return "M"
	}
}

// Cache is the processor's secondary cache. It tracks tags and states only;
// data values live in the workload's backing store (timing-directed
// simulation).
//
// Each set is ways consecutive words kept in recency order: way 0 is the
// most recently used, and empty ways (0) trail the resident ones. A way
// holds line<<2 | state. Recency order is LRU without stamps: a hit or a
// fill moves its way to the front, an invalidation closes its way's gap,
// and a fill takes the last way — free, or else the one a stamp cache
// would have found oldest.
//
// The sets live in set groups of up to 4 KiB of tags (512 words: 256 sets
// at 2 ways; a smaller cache is one group of its own size), and a group is
// allocated on the first fill into it, so a cache costs the host what its
// run touched rather than its configured size. Every never-filled group is
// the process-wide zero group, which every cache shares, those of
// machines running concurrently included, and which is never written:
// only Fill writes a way it did not find, and it materializes the group
// first; SetState and a hit's promotion write only ways that hold a line.
type Cache struct {
	CacheState

	ways   int
	mask   uint64 // sets - 1; the set count is a power of two
	gshift uint   // log2 of the sets per group
	gmask  uint64 // sets per group - 1
	// zero is the never-filled group at this cache's group size: a
	// prefix of zeroGroup, or, for a set of more than groupWords ways, a
	// read-only group of the cache's own.
	zero []uint64
}

// CacheState is the cache's simulated state, listed once: Cache embeds it,
// CaptureState copies it and RestoreState installs it. Its groups are the
// cache's set groups, a never-filled one being the shared zero group; the
// zero CacheState is an empty cache.
type CacheState struct {
	groups [][]uint64
}

// groupWords is the tag words in a full set group: 4 KiB.
const groupWords = 512

// zeroGroup backs every never-filled set group of every cache whose group
// fits in it. It is read-only: nothing ever writes it.
var zeroGroup [groupWords]uint64

// NewCache builds a cache of size bytes with the given associativity. The
// set count must be a positive power of two (arch.CacheGeometry). No tag
// memory is allocated until a line is filled.
func NewCache(size, ways int) *Cache {
	if err := arch.CacheGeometry("cache size", size, "cache ways", ways); err != nil {
		panic("cpu: " + err.Error())
	}
	sets := size / (arch.LineSize * ways)
	gsets := 1 // the largest power of two of sets that fits in groupWords
	for gsets*2 <= sets && gsets*2*ways <= groupWords {
		gsets *= 2
	}
	c := &Cache{
		ways:   ways,
		mask:   uint64(sets) - 1,
		gmask:  uint64(gsets) - 1,
		gshift: uint(bits.TrailingZeros(uint(gsets))),
	}
	if n := gsets * ways; n <= groupWords {
		c.zero = zeroGroup[:n:n]
	} else {
		c.zero = make([]uint64, n) // one set wider than a group: its own zero group
	}
	c.groups = make([][]uint64, sets/gsets)
	c.RestoreState(CacheState{})
	return c
}

// locate returns the group holding line's set, the zero group if it was
// never filled, and the index of the set's first way in it. (The shift
// is masked to 63 so that it compiles to one instruction.)
func (c *Cache) locate(line uint64) (g []uint64, base int) {
	s := line & c.mask
	return c.groups[s>>(c.gshift&63)], int(s&c.gmask) * c.ways
}

// set returns the ways of line's set, in recency order.
func (c *Cache) set(line uint64) []uint64 {
	g, base := c.locate(line)
	return g[base : base+c.ways]
}

// isZero reports whether g is the shared zero group.
func (c *Cache) isZero(g []uint64) bool { return &g[0] == &c.zero[0] }

// materialize replaces line's never-filled set group with a private one
// and returns it.
func (c *Cache) materialize(line uint64) []uint64 {
	g := make([]uint64, len(c.zero))
	c.groups[line&c.mask>>c.gshift] = g
	return g
}

// holds reports whether way word t holds line. The t != 0 test keeps an
// empty way from matching line 0.
func holds(t, line uint64) bool { return t>>2 == line && t != 0 }

// find returns the way holding line in set, or -1.
func find(set []uint64, line uint64) int {
	for w, t := range set {
		if holds(t, line) {
			return w
		}
	}
	return -1
}

// promote moves way w of set to the front, shifting ways 0..w-1 back one,
// and stores t there.
func promote(set []uint64, w int, t uint64) {
	for ; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = t
}

// Lookup returns the state of line, making it most recently used on a hit.
// A hit on way 0, the most recent, moves nothing.
func (c *Cache) Lookup(line uint64) LineState {
	g, base := c.locate(line)
	if t := g[base]; holds(t, line) {
		return LineState(t & 3)
	}
	set := g[base : base+c.ways]
	for w := 1; w < len(set); w++ {
		if t := set[w]; holds(t, line) {
			promote(set, w, t)
			return LineState(t & 3)
		}
	}
	return Invalid
}

// SetState transitions an existing line (no-op if not resident). Used by
// interventions: invalidate or downgrade. Neither touches recency.
func (c *Cache) SetState(line uint64, s LineState) (had LineState) {
	set := c.set(line)
	w := find(set, line)
	if w < 0 {
		return Invalid
	}
	had = LineState(set[w] & 3)
	if s == Invalid {
		copy(set[w:], set[w+1:])
		set[c.ways-1] = 0
	} else {
		set[w] = line<<2 | uint64(s)
	}
	return had
}

// Fill inserts line in state s (Shared or Modified), returning an evicted
// victim if any. If the line is already resident (e.g. an upgrade fill)
// only its state changes. Either way the line becomes most recently used.
func (c *Cache) Fill(line uint64, s LineState) (victim uint64, victimState LineState, evicted bool) {
	g, base := c.locate(line)
	set := g[base : base+c.ways]
	w := find(set, line)
	if w < 0 {
		if c.isZero(g) {
			set = c.materialize(line)[base : base+c.ways]
		}
		w = c.ways - 1
		if t := set[w]; t != 0 {
			victim, victimState, evicted = t>>2, LineState(t&3), true
		}
	}
	promote(set, w, line<<2|uint64(s))
	return victim, victimState, evicted
}

// CaptureState copies the cache contents: each materialized group is
// cloned, and a never-filled group stays the shared zero group.
func (c *Cache) CaptureState() CacheState {
	st := CacheState{groups: make([][]uint64, len(c.groups))}
	for i, g := range c.groups {
		if !c.isZero(g) {
			g = slices.Clone(g)
		}
		st.groups[i] = g
	}
	return st
}

// RestoreState installs a state captured from a same-geometry cache. A
// captured group is copied, never shared, so one capture restores any
// number of times; the zero CacheState returns every group to the zero
// group, releasing the cache's tag memory.
func (c *Cache) RestoreState(st CacheState) {
	if st.groups != nil && len(st.groups) != len(c.groups) {
		panic(fmt.Sprintf("cpu: restoring %d set groups into %d", len(st.groups), len(c.groups)))
	}
	for i := range c.groups {
		switch {
		case st.groups == nil || c.isZero(st.groups[i]):
			c.groups[i] = c.zero
		case c.isZero(c.groups[i]):
			c.groups[i] = slices.Clone(st.groups[i])
		default:
			copy(c.groups[i], st.groups[i])
		}
	}
}

// SameSet reports whether two lines map to the same cache set.
func (c *Cache) SameSet(a, b uint64) bool { return a&c.mask == b&c.mask }

// Resident yields each resident line and its state, set group by set
// group and each set in recency order; it reads materialized groups only
// and allocates nothing. Range over it (for line, s := range c.Resident).
func (c *Cache) Resident(yield func(line uint64, s LineState) bool) {
	for _, g := range c.groups {
		if c.isZero(g) {
			continue
		}
		for _, t := range g {
			if t != 0 && !yield(t>>2, LineState(t&3)) {
				return
			}
		}
	}
}

// Probe returns the state of line without touching recency (for invariant
// checks; the processor's own lookups use Lookup).
func (c *Cache) Probe(line uint64) LineState {
	set := c.set(line)
	if w := find(set, line); w >= 0 {
		return LineState(set[w] & 3)
	}
	return Invalid
}

// Groups returns the number of materialized set groups: the cache's tag
// memory is Groups times its group size.
func (c *Cache) Groups() int {
	n := 0
	for _, g := range c.groups {
		if !c.isZero(g) {
			n++
		}
	}
	return n
}
