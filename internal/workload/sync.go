package workload

import "flashsim/internal/arch"

// Lock is a test-and-test&set spin lock living in simulated shared memory.
// Contended acquires spin on a cached copy (coherence misses only on
// release), with bounded exponential backoff — the PARMACS-style locks the
// SPLASH applications used.
type Lock struct {
	addr arch.Addr
}

// NewLock allocates a lock on the given home node (lock placement drives
// hot-spotting, so it is explicit).
func (w *World) NewLock(home arch.NodeID) *Lock {
	return &Lock{addr: w.AllocOnNode(arch.LineSize, home)}
}

// Acquire spins until the lock is held.
func (l *Lock) Acquire(c *Ctx) {
	backoff := 8
	for {
		// Test: spin on the (cached) value.
		for c.readSync(l.addr) != 0 {
			c.Busy(backoff)
			if backoff < 256 {
				backoff *= 2
			}
		}
		// Test-and-set.
		if c.Swap(l.addr, 1) == 0 {
			return
		}
		c.Busy(backoff)
	}
}

// Release frees the lock.
func (l *Lock) Release(c *Ctx) {
	c.writeSync(l.addr, 0)
}

// Barrier is a centralized sense-reversing barrier in simulated memory.
type Barrier struct {
	count arch.Addr
	sense arch.Addr
	n     int
}

// NewBarrier allocates a barrier for n threads on the given home node.
func (w *World) NewBarrier(n int, home arch.NodeID) *Barrier {
	b := &Barrier{n: n}
	b.count = w.AllocOnNode(arch.LineSize, home)
	b.sense = w.AllocOnNode(arch.LineSize, home)
	return b
}

// Wait blocks the thread until all n threads arrive.
func (b *Barrier) Wait(c *Ctx) {
	mySense := c.senses[b] ^ 1
	c.senses[b] = mySense
	if c.FetchAdd(b.count, 1) == uint64(b.n-1) {
		// Last arrival: reset and release.
		c.writeSync(b.count, 0)
		c.writeSync(b.sense, mySense)
		return
	}
	backoff := 8
	for c.readSync(b.sense) != mySense {
		c.Busy(backoff)
		if backoff < 2048 {
			backoff *= 2
		}
	}
}

// Reduce adds v into a shared accumulator under a lock — the common
// end-of-phase reduction pattern.
type Reduction struct {
	lock *Lock
	cell arch.Addr
}

// NewReduction allocates a locked accumulator cell on the given node.
func (w *World) NewReduction(home arch.NodeID) *Reduction {
	return &Reduction{lock: w.NewLock(home), cell: w.AllocOnNode(arch.LineSize, home)}
}

// AddF accumulates a float64 under the lock.
func (r *Reduction) AddF(c *Ctx, v float64) {
	r.lock.Acquire(c)
	c.WriteF(r.cell, c.ReadF(r.cell)+v)
	r.lock.Release(c)
}
