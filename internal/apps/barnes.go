package apps

import (
	"fmt"
	"math"

	"flashsim/internal/workload"
)

// Barnes-Hut node pool layout, in 8-byte words per node.
const (
	bhMass    = 0 // total mass
	bhComX    = 1 // center of mass
	bhComY    = 2
	bhComZ    = 3
	bhLeaf    = 4  // 1 = leaf
	bhCount   = 5  // bodies in a leaf
	bhChild0  = 6  // 8 children indices (internal) or body indices (leaf)
	bhSize    = 14 // cell edge length
	bhCtrX    = 15 // cell center
	bhCtrY    = 16
	bhCtrZ    = 17
	bhWords   = 18
	bhLeafCap = 8
)

// bhAccess abstracts the storage so the identical Barnes-Hut code runs both
// inside the simulation (through a thread context) and natively (for
// verification).
type bhAccess struct {
	nodeU  func(i int) uint64
	setNU  func(i int, v uint64)
	posF   func(dim, body int) float64
	velF   func(dim, body int) float64
	setVel func(dim, body int, v float64)
	setPos func(dim, body int, v float64)
	busy   func(n int)
}

func (a *bhAccess) nodeF(i int) float64    { return math.Float64frombits(a.nodeU(i)) }
func (a *bhAccess) setNF(i int, v float64) { a.setNU(i, math.Float64bits(v)) }

// bhTree provides build and traversal over an access.
type bhTree struct {
	a     *bhAccess
	alloc func() int // returns a fresh node index (zeroed)
	theta float64
}

// newCell initializes node idx as an empty leaf cell.
func (t *bhTree) newCell(cx, cy, cz, size float64) int {
	idx := t.alloc()
	base := idx * bhWords
	t.a.setNU(base+bhLeaf, 1)
	t.a.setNU(base+bhCount, 0)
	t.a.setNF(base+bhSize, size)
	t.a.setNF(base+bhCtrX, cx)
	t.a.setNF(base+bhCtrY, cy)
	t.a.setNF(base+bhCtrZ, cz)
	t.a.busy(12)
	return idx
}

// octant returns the child octant of (x,y,z) in the cell at base.
func (t *bhTree) octant(base int, x, y, z float64) int {
	o := 0
	if x >= t.a.nodeF(base+bhCtrX) {
		o |= 1
	}
	if y >= t.a.nodeF(base+bhCtrY) {
		o |= 2
	}
	if z >= t.a.nodeF(base+bhCtrZ) {
		o |= 4
	}
	t.a.busy(9)
	return o
}

// insert adds body b at (x,y,z) into the subtree rooted at idx.
func (t *bhTree) insert(idx, b int, x, y, z float64) {
	for {
		base := idx * bhWords
		if t.a.nodeU(base+bhLeaf) == 1 {
			n := int(t.a.nodeU(base + bhCount))
			if n < bhLeafCap {
				t.a.setNU(base+bhChild0+n, uint64(b))
				t.a.setNU(base+bhCount, uint64(n+1))
				t.a.busy(6)
				return
			}
			// Split: turn the leaf into an internal node and reinsert.
			bodies := make([]int, bhLeafCap)
			for i := 0; i < bhLeafCap; i++ {
				bodies[i] = int(t.a.nodeU(base + bhChild0 + i))
			}
			t.a.setNU(base+bhLeaf, 0)
			for i := 0; i < bhLeafCap; i++ {
				t.a.setNU(base+bhChild0+i, 0)
			}
			t.a.busy(20)
			for _, ob := range bodies {
				ox := t.a.posF(0, ob)
				oy := t.a.posF(1, ob)
				oz := t.a.posF(2, ob)
				t.insertChild(idx, ob, ox, oy, oz)
			}
			// Fall through to insert b into the now-internal node.
		}
		idx = t.childFor(idx, x, y, z)
	}
}

// insertChild places body ob into the proper child of internal node idx,
// creating the child cell if needed.
func (t *bhTree) insertChild(idx, ob int, x, y, z float64) {
	t.insertAt(t.childFor(idx, x, y, z), ob, x, y, z)
}

func (t *bhTree) insertAt(idx, b int, x, y, z float64) { t.insert(idx, b, x, y, z) }

// childFor returns (creating if necessary) the child cell of idx containing
// (x,y,z).
func (t *bhTree) childFor(idx int, x, y, z float64) int {
	base := idx * bhWords
	o := t.octant(base, x, y, z)
	ch := int(t.a.nodeU(base + bhChild0 + o))
	if ch == 0 {
		sz := t.a.nodeF(base + bhSize)
		q := sz / 4
		cx := t.a.nodeF(base + bhCtrX)
		cy := t.a.nodeF(base + bhCtrY)
		cz := t.a.nodeF(base + bhCtrZ)
		if o&1 == 1 {
			cx += q
		} else {
			cx -= q
		}
		if o&2 == 2 {
			cy += q
		} else {
			cy -= q
		}
		if o&4 == 4 {
			cz += q
		} else {
			cz -= q
		}
		ch = t.newCell(cx, cy, cz, sz/2)
		t.a.setNU(base+bhChild0+o, uint64(ch))
		t.a.busy(14)
	}
	return ch
}

// summarize computes mass and center-of-mass bottom-up for the subtree.
func (t *bhTree) summarize(idx int) (mass, mx, my, mz float64) {
	base := idx * bhWords
	if t.a.nodeU(base+bhLeaf) == 1 {
		n := int(t.a.nodeU(base + bhCount))
		for i := 0; i < n; i++ {
			b := int(t.a.nodeU(base + bhChild0 + i))
			mass += 1
			mx += t.a.posF(0, b)
			my += t.a.posF(1, b)
			mz += t.a.posF(2, b)
			t.a.busy(10)
		}
	} else {
		for o := 0; o < 8; o++ {
			ch := int(t.a.nodeU(base + bhChild0 + o))
			if ch == 0 {
				continue
			}
			m, x, y, z := t.summarize(ch)
			mass += m
			mx += x
			my += y
			mz += z
			t.a.busy(8)
		}
	}
	t.a.setNF(base+bhMass, mass)
	if mass > 0 {
		t.a.setNF(base+bhComX, mx/mass)
		t.a.setNF(base+bhComY, my/mass)
		t.a.setNF(base+bhComZ, mz/mass)
	}
	t.a.busy(12)
	return mass, mx, my, mz
}

const bhSoft = 0.05 // softening

// force accumulates the acceleration on body b from the subtree at idx.
func (t *bhTree) force(idx, b int, x, y, z float64, ax, ay, az *float64) {
	base := idx * bhWords
	if t.a.nodeU(base+bhLeaf) == 1 {
		n := int(t.a.nodeU(base + bhCount))
		for i := 0; i < n; i++ {
			ob := int(t.a.nodeU(base + bhChild0 + i))
			if ob == b {
				continue
			}
			dx := t.a.posF(0, ob) - x
			dy := t.a.posF(1, ob) - y
			dz := t.a.posF(2, ob) - z
			r2 := dx*dx + dy*dy + dz*dz + bhSoft
			inv := 1 / (r2 * math.Sqrt(r2))
			*ax += dx * inv
			*ay += dy * inv
			*az += dz * inv
			t.a.busy(24)
		}
		return
	}
	mass := t.a.nodeF(base + bhMass)
	if mass == 0 {
		return
	}
	dx := t.a.nodeF(base+bhComX) - x
	dy := t.a.nodeF(base+bhComY) - y
	dz := t.a.nodeF(base+bhComZ) - z
	d2 := dx*dx + dy*dy + dz*dz + bhSoft
	size := t.a.nodeF(base + bhSize)
	if size*size < t.theta*t.theta*d2 {
		inv := mass / (d2 * math.Sqrt(d2))
		*ax += dx * inv
		*ay += dy * inv
		*az += dz * inv
		t.a.busy(28)
		return
	}
	t.a.busy(16)
	for o := 0; o < 8; o++ {
		ch := int(t.a.nodeU(base + bhChild0 + o))
		if ch != 0 {
			t.force(ch, b, x, y, z, ax, ay, az)
		}
	}
}

// BuildBarnes constructs the hierarchical N-body workload: an octree is
// rebuilt each timestep by processor 0 and traversed by all processors to
// compute forces on their own bodies (theta = 1.0) — the read-mostly tree
// sharing that gives Barnes its "remote dirty remote"-heavy but tiny miss
// rate in Table 4.1.
func BuildBarnes(w *workload.World, p Params) (*App, error) {
	n := p.scaled(8192) // paper: 8192 particles, theta = 1.0
	steps := 2
	const dt = 0.01
	procs := p.Procs
	per := (n + procs - 1) / procs
	n = per * procs

	maxNodes := 4*n + 64
	pos := [3]*workload.Array{w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs)}
	vel := [3]*workload.Array{w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs)}
	// Double buffers so force traversals read a consistent snapshot while
	// integrations write the next step.
	npos := [3]*workload.Array{w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs)}
	nvel := [3]*workload.Array{w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs), w.NewArrayBlocked(n, procs)}
	nodes := w.NewArray(maxNodes * bhWords) // shared tree, interleaved
	bar := w.NewBarrier(procs, 0)

	barnesInput(n, func(i int, p, v [3]float64) {
		for d := 0; d < 3; d++ {
			*w.M.Word(pos[d].Addr(i)) = math.Float64bits(p[d])
			*w.M.Word(vel[d].Addr(i)) = math.Float64bits(v[d])
		}
	})

	simStep := func(c *workload.Ctx, next *uint64) {
		acc := &bhAccess{
			nodeU:  func(i int) uint64 { return c.ReadU(nodes.Addr(i)) },
			setNU:  func(i int, v uint64) { c.WriteU(nodes.Addr(i), v) },
			posF:   func(d, b int) float64 { return c.ReadF(pos[d].Addr(b)) },
			velF:   func(d, b int) float64 { return c.ReadF(vel[d].Addr(b)) },
			setVel: func(d, b int, v float64) { c.WriteF(vel[d].Addr(b), v) },
			setPos: func(d, b int, v float64) { c.WriteF(pos[d].Addr(b), v) },
			busy:   func(k int) { c.Busy(k) },
		}
		t := &bhTree{a: acc, theta: 1.0, alloc: func() int {
			idx := int(*next)
			*next++
			if idx >= maxNodes {
				panic("barnes: node pool exhausted")
			}
			base := idx * bhWords
			for k := 0; k < bhWords; k++ {
				acc.setNU(base+k, 0)
			}
			return idx
		}}
		// Build (processor 0) — root is node 1 (0 is the null index).
		if c.ID == 0 {
			*next = 1
			root := t.newCell(0, 0, 0, 4.0)
			for b := 0; b < n; b++ {
				t.insert(root, b, acc.posF(0, b), acc.posF(1, b), acc.posF(2, b))
			}
			t.summarize(root)
		}
		bar.Wait(c)
		// Forces and integration on owned bodies, written to the next-step
		// buffers so every traversal sees the same snapshot.
		lo, hi := c.ID*per, (c.ID+1)*per
		for b := lo; b < hi; b++ {
			x, y, z := acc.posF(0, b), acc.posF(1, b), acc.posF(2, b)
			var ax, ay, az float64
			t.force(1, b, x, y, z, &ax, &ay, &az)
			vx := acc.velF(0, b) + ax*dt
			vy := acc.velF(1, b) + ay*dt
			vz := acc.velF(2, b) + az*dt
			c.WriteF(nvel[0].Addr(b), vx)
			c.WriteF(nvel[1].Addr(b), vy)
			c.WriteF(nvel[2].Addr(b), vz)
			c.WriteF(npos[0].Addr(b), x+vx*dt)
			c.WriteF(npos[1].Addr(b), y+vy*dt)
			c.WriteF(npos[2].Addr(b), z+vz*dt)
			c.Busy(30)
		}
		bar.Wait(c)
		// Copy back the owned slice.
		for b := lo; b < hi; b++ {
			for d := 0; d < 3; d++ {
				acc.setPos(d, b, c.ReadF(npos[d].Addr(b)))
				acc.setVel(d, b, c.ReadF(nvel[d].Addr(b)))
			}
			c.Busy(12)
		}
		bar.Wait(c)
	}

	run := func(c *workload.Ctx) {
		nextNode := uint64(1)
		for s := 0; s < steps; s++ {
			simStep(c, &nextNode)
		}
	}

	verify := func() error {
		// Native mirror over plain slices using the same code, from the
		// regenerated initial cluster.
		refPos := make([][3]float64, n)
		refVel := make([][3]float64, n)
		barnesInput(n, func(i int, p, v [3]float64) { refPos[i], refVel[i] = p, v })
		nodesN := make([]uint64, maxNodes*bhWords)
		next := 1
		acc := &bhAccess{
			nodeU:  func(i int) uint64 { return nodesN[i] },
			setNU:  func(i int, v uint64) { nodesN[i] = v },
			posF:   func(d, b int) float64 { return refPos[b][d] },
			velF:   func(d, b int) float64 { return refVel[b][d] },
			setVel: func(d, b int, v float64) { refVel[b][d] = v },
			setPos: func(d, b int, v float64) { refPos[b][d] = v },
			busy:   func(int) {},
		}
		t := &bhTree{a: acc, theta: 1.0, alloc: func() int {
			idx := next
			next++
			base := idx * bhWords
			for k := 0; k < bhWords; k++ {
				nodesN[base+k] = 0
			}
			return idx
		}}
		for s := 0; s < steps; s++ {
			next = 1
			root := t.newCell(0, 0, 0, 4.0)
			for b := 0; b < n; b++ {
				t.insert(root, b, refPos[b][0], refPos[b][1], refPos[b][2])
			}
			t.summarize(root)
			// Forces on a snapshot of positions (as the simulated phase
			// separates force computation from integration by a barrier).
			newPos := make([][3]float64, n)
			newVel := make([][3]float64, n)
			for b := 0; b < n; b++ {
				x, y, z := refPos[b][0], refPos[b][1], refPos[b][2]
				var ax, ay, az float64
				t.force(1, b, x, y, z, &ax, &ay, &az)
				vx := refVel[b][0] + ax*dt
				vy := refVel[b][1] + ay*dt
				vz := refVel[b][2] + az*dt
				newVel[b] = [3]float64{vx, vy, vz}
				newPos[b] = [3]float64{x + vx*dt, y + vy*dt, z + vz*dt}
			}
			copy(refPos, newPos)
			copy(refVel, newVel)
		}
		for b := 0; b < n; b += 1 + n/512 {
			for d := 0; d < 3; d++ {
				got := math.Float64frombits(*w.M.Word(pos[d].Addr(b)))
				want := refPos[b][d]
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					return fmt.Errorf("barnes: body %d dim %d pos = %g, want %g", b, d, got, want)
				}
			}
		}
		return nil
	}

	return &App{Name: "barnes", Run: run, Verify: verify}, nil
}

// barnesInput passes set each body's deterministic initial position and
// velocity, in body order. Build writes them into simulated memory and
// Verify regenerates them, so no native copy is held through the run.
func barnesInput(n int, set func(i int, pos, vel [3]float64)) {
	rng := uint64(0x452821E638D01377)
	rnd := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%100000)/50000 - 1 // [-1, 1)
	}
	for i := 0; i < n; i++ {
		p := [3]float64{rnd(), rnd(), rnd()}
		set(i, p, [3]float64{rnd() * 0.1, rnd() * 0.1, rnd() * 0.1})
	}
}
