package exp

import (
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/core"
)

// MachinePool recycles machines across runs that repeat a configuration.
// Machine construction pays for component allocation (caches, MDCs,
// controllers, chunk tables) and engine setup on every core.New — protocol
// assembly is memoized process-wide and memories are sparse, so that is
// all it pays for; an experiment driver that runs the same handful of
// configurations over and over (RunApp's legs and repeats) gets the same
// machines back from the pool, wiped by core.Machine.Reset (a property
// TestMachineResetDeterminism pins: a recycled machine is bit-identical to
// a fresh one). Machines are pooled under core.PoolKeyFor, so host-side
// execution choices (engine, sync scheme, PP dispatch) never mix. A sweep
// whose points all differ (Explore) has nothing to recycle and does not
// use one.
type MachinePool struct {
	mu   sync.Mutex
	idle map[string][]*core.Machine

	// Hits and Misses count Get calls served from the pool vs. built
	// fresh; read them after the sweep (not synchronized with Get).
	Hits, Misses int
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{idle: map[string][]*core.Machine{}}
}

// Get returns a machine for cfg: a recycled one when available, freshly
// built otherwise. The caller owns it until Put.
func (p *MachinePool) Get(cfg arch.Config) (*core.Machine, error) {
	key := core.PoolKeyFor(cfg)
	p.mu.Lock()
	if list := p.idle[key]; len(list) > 0 {
		m := list[len(list)-1]
		p.idle[key] = list[:len(list)-1]
		p.Hits++
		p.mu.Unlock()
		return m, nil
	}
	p.Misses++
	p.mu.Unlock()
	return core.New(cfg)
}

// Put wipes m and returns it to the pool. m may be in any state — mid-run
// machines (a snapshot donor parked at its pause point) are fine; Reset
// restores the freshly constructed state.
func (p *MachinePool) Put(m *core.Machine) {
	m.Reset()
	key := m.PoolKey()
	p.mu.Lock()
	p.idle[key] = append(p.idle[key], m)
	p.mu.Unlock()
}
