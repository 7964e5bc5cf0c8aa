package apps

import (
	"fmt"
	"math"

	"flashsim/internal/workload"
)

// BuildOcean constructs the paper's regular-grid iterative class: a
// five-point Jacobi relaxation over (g+2)^2 grids partitioned into row
// bands, with a global residual reduction each sweep — the communication
// skeleton of SPLASH Ocean (nearest-neighbour edge exchanges plus a
// reduction). Three full-size fields give it Ocean's multi-grid footprint.
func BuildOcean(w *workload.World, p Params) (*App, error) {
	g := p.scaled(256) // paper: 258x258 including borders
	iters := 6
	procs := p.Procs
	rows := g + 2
	cols := g + 2
	if g%procs != 0 {
		return nil, fmt.Errorf("ocean: grid %d not divisible by %d processors", g, procs)
	}

	// Row-band placement: processor i owns rows [1 + i*g/procs, ...).
	alloc := func() *workload.Array { return w.NewArrayBlocked(rows*cols, procs) }
	cur, nxt, frc := alloc(), alloc(), alloc()
	bar := w.NewBarrier(procs, 0)
	red := w.NewReduction(0)

	oceanInput(rows*cols, func(i int, v, f float64) {
		*w.M.Word(cur.Addr(i)) = math.Float64bits(v)
		*w.M.Word(nxt.Addr(i)) = math.Float64bits(v)
		*w.M.Word(frc.Addr(i)) = math.Float64bits(f)
	})

	rowsPer := g / procs

	run := func(c *workload.Ctx) {
		r0 := 1 + c.ID*rowsPer
		r1 := r0 + rowsPer
		a, b := cur, nxt
		for it := 0; it < iters; it++ {
			local := 0.0
			for i := r0; i < r1; i++ {
				for j := 1; j <= g; j++ {
					idx := i*cols + j
					up := c.ReadF(a.Addr(idx - cols))
					dn := c.ReadF(a.Addr(idx + cols))
					lf := c.ReadF(a.Addr(idx - 1))
					rt := c.ReadF(a.Addr(idx + 1))
					f := c.ReadF(frc.Addr(idx))
					old := c.ReadF(a.Addr(idx))
					v := 0.25*(up+dn+lf+rt) + f
					c.WriteF(b.Addr(idx), v)
					d := v - old
					local += d * d
					c.Busy(14)
				}
			}
			red.AddF(c, local)
			bar.Wait(c)
			a, b = b, a
		}
	}

	verify := func() error {
		// Native mirror of the same sweeps, from the regenerated input.
		a := make([]float64, rows*cols)
		refFrc := make([]float64, rows*cols)
		oceanInput(rows*cols, func(i int, v, f float64) { a[i], refFrc[i] = v, f })
		b := append([]float64(nil), a...)
		for it := 0; it < iters; it++ {
			for i := 1; i <= g; i++ {
				for j := 1; j <= g; j++ {
					idx := i*cols + j
					b[idx] = 0.25*(a[idx-cols]+a[idx+cols]+a[idx-1]+a[idx+1]) + refFrc[idx]
				}
			}
			a, b = b, a
		}
		// After `iters` swaps the latest data is in `a` natively and in cur
		// (even iters) or nxt (odd) in the simulation.
		final := cur
		if iters%2 == 1 {
			final = nxt
		}
		step := 1
		if g > 64 {
			step = g / 64
		}
		for i := 1; i <= g; i += step {
			for j := 1; j <= g; j += step {
				idx := i*cols + j
				got := math.Float64frombits(*w.M.Word(final.Addr(idx)))
				if d := math.Abs(got - a[idx]); d > 1e-9*(1+math.Abs(a[idx])) {
					return fmt.Errorf("ocean: grid[%d][%d] = %g, want %g", i, j, got, a[idx])
				}
			}
		}
		return nil
	}

	return &App{Name: "ocean", Run: run, Verify: verify}, nil
}

// oceanInput passes set each grid point's deterministic initial value and
// forcing term, in index order. Build writes them into simulated memory and
// Verify regenerates them, so no native copy is held through the run.
func oceanInput(points int, set func(i int, v, f float64)) {
	rng := uint64(0xA4093822299F31D0)
	for i := 0; i < points; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		v := float64(int64(rng%1000)) / 1000
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		f := float64(int64(rng%100)) / 1000
		set(i, v, f)
	}
}
