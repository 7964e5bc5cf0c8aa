package apps

import (
	"fmt"
	"slices"

	"flashsim/internal/workload"
)

// radixKeys draws radix's deterministic 32-bit keys in index order from
// one xorshift stream. Build writes them into simulated memory and Verify
// draws them again, so no native copy of the keys outlives Build.
type radixKeys uint64

func newRadixKeys() radixKeys { return 0x13198A2E03707344 }

func (g *radixKeys) next() uint64 {
	r := uint64(*g)
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	*g = radixKeys(r)
	return r & 0xFFFFFFFF
}

// RadixKeys is the number of keys BuildRadix sorts under p: the paper's
// 256K integer keys divided by p.Scale, rounded up to a multiple of
// p.Procs.
func RadixKeys(p Params) int {
	n := p.scaled(256 * 1024)
	return (n + p.Procs - 1) / p.Procs * p.Procs
}

// radixVerifyShift splits the keys into the 16 ranges of their top four
// bits, which Verify sorts one at a time.
const radixVerifyShift = 28

// BuildRadix constructs the SPLASH-2 parallel radix sort: per digit, each
// processor histograms its own block of keys, the processors cooperatively
// compute global bucket offsets, and every key is written to its rank in
// the destination array — a scattered all-to-all write pattern. The misses
// it induces (Table 4.1: 76% "local dirty remote") come from re-reading
// your own block after remote processors wrote it.
func BuildRadix(w *workload.World, p Params) (*App, error) {
	app, _ := buildRadix(w, p)
	return app, nil
}

// buildRadix is BuildRadix, also returning the array that holds the sorted
// keys after the run.
func buildRadix(w *workload.World, p Params) (*App, *workload.Array) {
	n := RadixKeys(p)
	const radix = 256
	const digits = 4 // 32-bit keys
	procs := p.Procs
	per := n / procs

	src := w.NewArrayBlocked(n, procs)
	dst := w.NewArrayBlocked(n, procs)
	// hist[p*radix+b]: processor p's count for bucket b, row placed on p.
	hist := w.NewArrayBlocked(procs*radix, procs)
	// rank[p*radix+b]: global starting offset for p's keys in bucket b.
	rank := w.NewArrayBlocked(procs*radix, procs)
	// rtot[p]: total keys falling in processor p's bucket range.
	rtot := w.NewArrayBlocked(procs, procs)
	bar := w.NewBarrier(procs, 0)

	keys := newRadixKeys()
	for i := 0; i < n; i++ {
		*w.M.Word(src.Addr(i)) = keys.next()
	}

	run := func(c *workload.Ctx) {
		me := c.ID
		lo, hi := me*per, (me+1)*per
		a, b := src, dst
		for d := 0; d < digits; d++ {
			shift := uint(8 * d)
			// 1. Local histogram.
			for bkt := 0; bkt < radix; bkt++ {
				c.WriteU(hist.Addr(me*radix+bkt), 0)
				c.Busy(2)
			}
			for i := lo; i < hi; i++ {
				k := c.ReadU(a.Addr(i))
				bkt := int(k >> shift & (radix - 1))
				h := hist.Addr(me*radix + bkt)
				c.WriteU(h, c.ReadU(h)+1)
				c.Busy(8)
			}
			bar.Wait(c)
			// 2. Global ranks: buckets are split across processors. First
			// each processor totals its bucket range...
			bper := radix / procs
			tot := uint64(0)
			for bkt := me * bper; bkt < (me+1)*bper; bkt++ {
				for q := 0; q < procs; q++ {
					tot += c.ReadU(hist.Addr(q*radix + bkt))
					c.Busy(3)
				}
			}
			c.WriteU(rtot.Addr(me), tot)
			bar.Wait(c)
			// ...then prefixes the ranges below it and assigns per-bucket,
			// per-processor starting offsets within its range.
			base := uint64(0)
			for q := 0; q < me; q++ {
				base += c.ReadU(rtot.Addr(q))
				c.Busy(3)
			}
			for bkt := me * bper; bkt < (me+1)*bper; bkt++ {
				for q := 0; q < procs; q++ {
					c.WriteU(rank.Addr(q*radix+bkt), base)
					base += c.ReadU(hist.Addr(q*radix + bkt))
					c.Busy(4)
				}
			}
			bar.Wait(c)
			// 3. Permute into the destination.
			for i := lo; i < hi; i++ {
				k := c.ReadU(a.Addr(i))
				bkt := int(k >> shift & (radix - 1))
				r := rank.Addr(me*radix + bkt)
				off := c.ReadU(r)
				c.WriteU(r, off+1)
				c.WriteU(b.Addr(int(off)), k)
				c.Busy(10)
			}
			bar.Wait(c)
			a, b = b, a
		}
	}

	// After an even number of digits the result is back in src.
	final := src
	if digits%2 == 1 {
		final = dst
	}

	// verify rebuilds the sorted keys one range of their top four bits at
	// a time, lowest first: each range is drawn again from the generator,
	// sorted, and compared with its stretch of the result, which reports
	// the same first mismatch as comparing with all the keys sorted at
	// once. It reads memory through Store.Load, which materializes no page.
	verify := func() error {
		mem := w.M.Backing
		want := make([]uint32, 0, n/16+n/64)
		i := 0
		for r := range uint64(1 << (32 - radixVerifyShift)) {
			want = want[:0]
			keys := newRadixKeys()
			for range n {
				if k := keys.next(); k>>radixVerifyShift == r {
					want = append(want, uint32(k))
				}
			}
			slices.Sort(want)
			for _, k := range want {
				if got := mem.Load(uint64(final.Addr(i)) / 8); got != uint64(k) {
					return fmt.Errorf("radix: key[%d] = %d, want %d", i, got, k)
				}
				i++
			}
		}
		return nil
	}

	return &App{Name: "radix", Run: run, Verify: verify}, final
}
