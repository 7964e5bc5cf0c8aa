// Package ppsim emulates MAGIC's protocol processor: it executes scheduled
// dual-issue handler code (package ppisa) against the node's protocol
// memory, models the MAGIC data cache (MDC), and gathers the dynamic
// statistics reported in Tables 5.1-5.3 of the paper. No instruction cache
// is modeled: PP instruction fetch always hits, so where a handler sits in
// the image changes no cycle count.
package ppsim

import (
	"flashsim/internal/arch"
	"flashsim/internal/cpu"
)

// MDC models the MAGIC data cache: 64 KB, 2-way set associative, 128-byte
// lines, write-back with write-allocate. It has the processor cache's
// structure, so it is a cpu.Cache: a Modified line is a dirty one, and
// replacement is the cache's LRU recency order. Since almost all directory
// operations are read-modify-write, write misses behave like read misses
// (the paper notes the MDC write miss rate is approximately zero because of
// this).
type MDC struct {
	cache cpu.Cache
	Stats MDCStats
}

// MDCState is the MDC's simulated state: the cache's lines plus the
// counters. The zero MDCState is an empty cache with zeroed counters.
type MDCState struct {
	cpu.CacheState
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

// NewMDC builds an MDC of the given total size and associativity.
func NewMDC(size, ways int) *MDC {
	if err := arch.CacheGeometry("MDC size", size, "MDC ways", ways); err != nil {
		panic("ppsim: " + err.Error())
	}
	return &MDC{cache: *cpu.NewCache(size, ways)}
}

// Access looks up the protocol-memory address a. It returns whether the
// access hit and whether a dirty victim was written back on a miss.
// isWrite marks the line dirty.
func (m *MDC) Access(a uint64, isWrite bool) (hit, writeback bool) {
	line := a >> arch.LineShift
	st := cpu.Shared
	if isWrite {
		st = cpu.Modified
		m.Stats.Writes++
	} else {
		m.Stats.Reads++
	}
	if had := m.cache.Lookup(line); had != cpu.Invalid {
		if isWrite && had != cpu.Modified {
			m.cache.SetState(line, cpu.Modified)
		}
		return true, false
	}
	if isWrite {
		m.Stats.WriteMisses++
	} else {
		m.Stats.ReadMisses++
	}
	_, victim, evicted := m.cache.Fill(line, st)
	writeback = evicted && victim == cpu.Modified
	if writeback {
		m.Stats.Writebacks++
	}
	return false, writeback
}

// Groups returns the number of the MDC's materialized set groups.
func (m *MDC) Groups() int { return m.cache.Groups() }

// CaptureState deep-copies the MDC contents and counters.
func (m *MDC) CaptureState() MDCState { return MDCState{m.cache.CaptureState(), m.Stats} }

// RestoreState installs a state captured from a same-geometry MDC.
func (m *MDC) RestoreState(st MDCState) {
	m.cache.RestoreState(st.CacheState)
	m.Stats = st.Stats
}
