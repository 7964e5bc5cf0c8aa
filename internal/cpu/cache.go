// Package cpu models the compute processor and its secondary cache: an
// aggressive 400-MIPS processor with blocking reads, non-blocking merging
// writes and up to four outstanding misses, attached to a two-way
// set-associative write-back cache with 128-byte lines and critical-word-
// first fills (Section 3.2 of the paper).
package cpu

import (
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
type Cache struct {
	CacheState

	ways int
	mask uint64 // sets - 1; the set count is a power of two
}

// CacheState is the cache's simulated state, listed once: Cache embeds it,
// CaptureState copies it and RestoreState installs it (the zero CacheState
// is an empty cache).
type CacheState struct {
	tags []uint64
}

// NewCache builds a cache of size bytes with the given associativity. The
// set count must be a positive power of two (arch.CacheGeometry).
func NewCache(size, ways int) *Cache {
	if err := arch.CacheGeometry("cache size", size, "cache ways", ways); err != nil {
		panic("cpu: " + err.Error())
	}
	return &Cache{
		CacheState: CacheState{tags: make([]uint64, size/arch.LineSize)},
		ways:       ways,
		mask:       uint64(size/(arch.LineSize*ways)) - 1,
	}
}

// set returns the ways of line's set, in recency order.
func (c *Cache) set(line uint64) []uint64 {
	base := int(line&c.mask) * c.ways
	return c.tags[base : base+c.ways]
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
	set := c.set(line)
	if t := set[0]; holds(t, line) {
		return LineState(t & 3)
	}
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
	set := c.set(line)
	w := find(set, line)
	if w < 0 {
		w = c.ways - 1
		if t := set[w]; t != 0 {
			victim, victimState, evicted = t>>2, LineState(t&3), true
		}
	}
	promote(set, w, line<<2|uint64(s))
	return victim, victimState, evicted
}

// CaptureState deep-copies the cache contents.
func (c *Cache) CaptureState() CacheState { return CacheState{slices.Clone(c.tags)} }

// RestoreState installs a state captured from a same-geometry cache.
func (c *Cache) RestoreState(st CacheState) { arch.RestoreSlice(c.tags, st.tags) }

// SameSet reports whether two lines map to the same cache set.
func (c *Cache) SameSet(a, b uint64) bool { return a&c.mask == b&c.mask }

// Lines returns the resident lines and their states (for invariant checks).
func (c *Cache) Lines() map[uint64]LineState {
	out := make(map[uint64]LineState)
	for _, t := range c.tags {
		if t != 0 {
			out[t>>2] = LineState(t & 3)
		}
	}
	return out
}
