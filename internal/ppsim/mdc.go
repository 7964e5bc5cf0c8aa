// Package ppsim emulates MAGIC's protocol processor: it executes scheduled
// dual-issue handler code (package ppisa) against the node's protocol
// memory, models the MAGIC data cache (MDC), and gathers the dynamic
// statistics reported in Tables 5.1-5.3 of the paper. No instruction cache
// is modeled: PP instruction fetch always hits, so where a handler sits in
// the image changes no cycle count.
package ppsim

import (
	"slices"

	"flashsim/internal/arch"
)

// MDC models the MAGIC data cache: 64 KB, 2-way set associative, 128-byte
// lines, write-back with write-allocate. Since almost all directory
// operations are read-modify-write, write misses behave like read misses
// (the paper notes the MDC write miss rate is approximately zero because of
// this).
type MDC struct {
	MDCState

	ways     int
	sets     int
	setShift uint
}

// MDCState is the cache's simulated state, listed once: MDC embeds it,
// CaptureState copies it and RestoreState installs it (the zero MDCState is
// an empty cache with zeroed counters).
type MDCState struct {
	tags  []uint64 // sets*ways; 0 = empty
	dirty []bool
	lru   []uint8 // per-set counter for 2-way pseudo-LRU

	Stats MDCStats
}

// MDCStats counts MDC traffic for the Section 5.2 evaluation.
type MDCStats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Writebacks  uint64
}

// MissRate returns the overall MDC miss rate.
func (s *MDCStats) MissRate() float64 {
	t := s.Reads + s.Writes
	if t == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(t)
}

// ReadMissRate returns the MDC read miss rate.
func (s *MDCStats) ReadMissRate() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadMisses) / float64(s.Reads)
}

// NewMDC builds an MDC of the given total size and associativity.
func NewMDC(size, ways int) *MDC {
	if err := arch.CacheGeometry("MDC size", size, "MDC ways", ways); err != nil {
		panic("ppsim: " + err.Error())
	}
	sets := size / (arch.LineSize * ways)
	m := &MDC{ways: ways, sets: sets, MDCState: MDCState{
		tags:  make([]uint64, sets*ways),
		dirty: make([]bool, sets*ways),
		lru:   make([]uint8, sets),
	}}
	for s := uint(1); 1<<s < sets; s++ {
		m.setShift = s + 1
	}
	return m
}

// Access looks up the protocol-memory address a. It returns whether the
// access hit and whether a dirty victim was written back on a miss.
// isWrite marks the line dirty.
func (m *MDC) Access(a uint64, isWrite bool) (hit, writeback bool) {
	line := a >> arch.LineShift
	set := int(line) & (m.sets - 1)
	tag := line | 1<<63 // bit 63 marks a valid entry so tag 0 is distinct
	base := set * m.ways
	if isWrite {
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}
	for w := 0; w < m.ways; w++ {
		if m.tags[base+w] == tag {
			if isWrite {
				m.dirty[base+w] = true
			}
			m.touch(set, w)
			return true, false
		}
	}
	if isWrite {
		m.Stats.WriteMisses++
	} else {
		m.Stats.ReadMisses++
	}
	// Fill, evicting the LRU way.
	victim := m.victim(set)
	idx := base + victim
	writeback = m.tags[idx] != 0 && m.dirty[idx]
	if writeback {
		m.Stats.Writebacks++
	}
	m.tags[idx] = tag
	m.dirty[idx] = isWrite
	m.touch(set, victim)
	return false, writeback
}

// Flush invalidates the whole cache (used between experiment phases).
func (m *MDC) Flush() {
	for i := range m.tags {
		m.tags[i] = 0
		m.dirty[i] = false
	}
}

// CaptureState deep-copies the MDC contents and counters.
func (m *MDC) CaptureState() MDCState {
	return MDCState{slices.Clone(m.tags), slices.Clone(m.dirty), slices.Clone(m.lru), m.Stats}
}

// RestoreState installs a state captured from a same-geometry MDC.
func (m *MDC) RestoreState(st MDCState) {
	arch.RestoreSlice(m.tags, st.tags)
	arch.RestoreSlice(m.dirty, st.dirty)
	arch.RestoreSlice(m.lru, st.lru)
	m.Stats = st.Stats
}

func (m *MDC) touch(set, way int) {
	if m.ways == 2 {
		m.lru[set] = uint8(way)
		return
	}
	// For >2 ways fall back to a rotating counter biased away from `way`.
	m.lru[set] = uint8((way + 1) % m.ways)
}

func (m *MDC) victim(set int) int {
	if m.ways == 2 {
		return 1 - int(m.lru[set])
	}
	return int(m.lru[set]) % m.ways
}
