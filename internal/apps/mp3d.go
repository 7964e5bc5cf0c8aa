package apps

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/workload"
)

// BuildMP3D constructs the paper's communication stress test: a rarefied-
// fluid particle-in-cell step in the spirit of SPLASH MP3D. Each processor
// owns a block of particles (local data); every moved particle reads and
// updates counters in its space cell, and the space array is distributed
// round-robin across nodes, so cell traffic is scattered writes to lines
// recently dirtied by other processors — the "remote dirty remote"-dominated
// miss pattern of Table 4.1 (84%) and a 6% overall miss rate.
func BuildMP3D(w *workload.World, p Params) (*App, error) {
	m := newMP3D(w, p)
	return &App{Name: "mp3d", Run: m.run, Verify: m.verify}, nil
}

// mp3dSteps is the number of moves each particle makes.
const mp3dSteps = 4

// mp3dUnit is the fixed-point unit per cell edge.
const mp3dUnit = 1 << 16

// part is one particle's state: position and velocity as fixed-point
// integers (determinism: no float ordering concerns).
type part struct{ x, y, z, vx, vy, vz uint64 }

// words returns pt's fields in the order of mp3d.fields.
func (pt part) words() [6]uint64 { return [6]uint64{pt.x, pt.y, pt.z, pt.vx, pt.vy, pt.vz} }

// mp3dFieldNames names mp3d.fields in Verify's errors.
var mp3dFieldNames = [6]string{"x", "y", "z", "vx", "vy", "vz"}

// mp3d is one MP3D instance: its simulated arrays and the geometry its
// native oracle replays. It holds no per-particle native state: Verify
// re-derives each particle from the initial-condition stream.
type mp3d struct {
	w        *workload.World
	n, per   int
	side     int
	box      uint64
	fields   [6]*workload.Array // x, y, z, vx, vy, vz; owned blocks, locally placed
	cnt, eng *workload.Array    // per-cell tallies, page-interleaved round-robin
	bar      *workload.Barrier
}

func newMP3D(w *workload.World, p Params) *mp3d {
	n := p.scaled(50000) // paper: 50,000 particles
	procs := p.Procs
	per := (n + procs - 1) / procs
	n = per * procs

	// Space: a 3-D box with roughly n/4 cells, interleaved across nodes.
	side := 1
	for side*side*side < n/4 {
		side++
	}
	cells := side * side * side

	m := &mp3d{w: w, n: n, per: per, side: side, box: uint64(side * mp3dUnit)}
	for f := range m.fields {
		m.fields[f] = w.NewArrayBlocked(n, procs)
	}
	m.cnt = w.NewArray(cells)
	m.eng = w.NewArray(cells)
	m.bar = w.NewBarrier(procs, 0)

	m.initial(func(i int, pt part) error {
		for f, v := range pt.words() {
			*w.M.Word(m.fields[f].Addr(i)) = v
		}
		return nil
	})
	return m
}

// initial draws the deterministic initial conditions from one sequential
// xorshift stream and calls each with every particle in index order,
// stopping at the first error each returns. Build writes the stream into
// the simulated arrays and Verify draws it again, so no native copy of the
// particles outlives Build.
func (m *mp3d) initial(each func(i int, pt part) error) error {
	rng := uint64(0x082EFA98EC4E6C89)
	rnd := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < m.n; i++ {
		pt := part{
			x: rnd() % m.box, y: rnd() % m.box, z: rnd() % m.box,
			vx: rnd()%mp3dUnit - mp3dUnit/2, vy: rnd()%mp3dUnit - mp3dUnit/2, vz: rnd()%mp3dUnit - mp3dUnit/2,
		}
		if err := each(i, pt); err != nil {
			return err
		}
	}
	return nil
}

// move advances pt one step and returns the cell it lands in.
func (m *mp3d) move(pt *part) int {
	box, side := m.box, m.side
	pt.x = (pt.x + pt.vx) % box
	pt.y = (pt.y + pt.vy) % box
	pt.z = (pt.z + pt.vz) % box
	cx := int(pt.x % box / mp3dUnit)
	cy := int(pt.y % box / mp3dUnit)
	cz := int(pt.z % box / mp3dUnit)
	cell := (cx*side+cy)*side + cz
	// Deterministic "collision": rotate velocity by a cell-dependent
	// permutation, as a stand-in for the Monte Carlo collision step.
	if cell&1 == 1 {
		pt.vx, pt.vy, pt.vz = pt.vy, pt.vz, pt.vx
	}
	return cell
}

func (m *mp3d) run(c *workload.Ctx) {
	px, py, pz, vx, vy, vz := m.fields[0], m.fields[1], m.fields[2], m.fields[3], m.fields[4], m.fields[5]
	lo, hi := c.ID*m.per, (c.ID+1)*m.per
	for s := 0; s < mp3dSteps; s++ {
		for i := lo; i < hi; i++ {
			pt := part{
				x:  c.ReadU(px.Addr(i)),
				y:  c.ReadU(py.Addr(i)),
				z:  c.ReadU(pz.Addr(i)),
				vx: c.ReadU(vx.Addr(i)),
				vy: c.ReadU(vy.Addr(i)),
				vz: c.ReadU(vz.Addr(i)),
			}
			cell := m.move(&pt)
			c.WriteU(px.Addr(i), pt.x)
			c.WriteU(py.Addr(i), pt.y)
			c.WriteU(pz.Addr(i), pt.z)
			c.WriteU(vx.Addr(i), pt.vx)
			c.WriteU(vy.Addr(i), pt.vy)
			c.WriteU(vz.Addr(i), pt.vz)
			// Cell interaction: read the cell state (the stress-test
			// communication), then update its tallies atomically.
			c.ReadU(m.cnt.Addr(cell))
			c.ReadU(m.eng.Addr(cell))
			c.FetchAddData(m.cnt.Addr(cell), 1)
			c.FetchAddData(m.eng.Addr(cell), pt.vx&0xFFFF)
			c.Busy(40)
		}
		m.bar.Wait(c)
	}
}

// verify replays each particle's moves from its initial conditions,
// compares all six of its fields with simulated memory, and tallies the
// cells natively to compare with the simulated tallies. It reads memory
// through Store.Load, which materializes no page.
func (m *mp3d) verify() error {
	mem := m.w.M.Backing
	load := func(a arch.Addr) uint64 { return mem.Load(uint64(a) / 8) }
	cells := m.cnt.Len()
	wantCnt := make([]uint64, cells)
	wantEng := make([]uint64, cells)
	err := m.initial(func(i int, pt part) error {
		for s := 0; s < mp3dSteps; s++ {
			cell := m.move(&pt)
			wantCnt[cell]++
			wantEng[cell] += pt.vx & 0xFFFF
		}
		for f, want := range pt.words() {
			if got := load(m.fields[f].Addr(i)); got != want {
				return fmt.Errorf("mp3d: particle %d %s = %d, want %d", i, mp3dFieldNames[f], got, want)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var total uint64
	for cl := 0; cl < cells; cl++ {
		if got := load(m.cnt.Addr(cl)); got != wantCnt[cl] {
			return fmt.Errorf("mp3d: cell %d count = %d, want %d", cl, got, wantCnt[cl])
		}
		if got := load(m.eng.Addr(cl)); got != wantEng[cl] {
			return fmt.Errorf("mp3d: cell %d energy = %d, want %d", cl, got, wantEng[cl])
		}
		total += wantCnt[cl]
	}
	if total != uint64(m.n*mp3dSteps) {
		return fmt.Errorf("mp3d: conservation violated: %d tallies, want %d", total, m.n*mp3dSteps)
	}
	return nil
}
