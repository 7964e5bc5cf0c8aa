package protocol_test

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/protocol"
)

// pristineWord is the word-by-word definition of a node's pristine
// protocol memory: zero except the free list threaded through the pointer
// pool, where entry k links to k+1 and the last entry to NullPtr.
func pristineWord(l protocol.Layout, i uint64) uint64 {
	k := int64(i) - l.PtrBase/8
	switch {
	case k < 0 || k >= l.PoolSize:
		return 0
	case k == l.PoolSize-1:
		return protocol.NullPtr << protocol.NextPos
	}
	return uint64(k+1) << protocol.NextPos
}

// FillPristine writes exactly the definition into every window: the whole
// memory at once, single words, and page- and region-sized windows (the
// sparse store fills one page at a time) at bases below, straddling,
// inside and past the pool. The bit-vector image is all zero.
func TestFillPristineMatchesDefinition(t *testing.T) {
	const page, region = 4 << 10 / 8, 64 << 10 / 8
	for _, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 4
		cfg.MemBytesPerNode = 1 << 20
		cfg.Protocol = proto
		lay := protocol.NewLayout(&cfg)
		words := uint64(lay.MemBytes / 8)
		pool, end := uint64(lay.PtrBase/8), uint64(lay.PtrBase/8+lay.PoolSize)

		whole := make([]uint64, words)
		lay.FillPristine(0, whole)
		nonzero := 0
		for i, got := range whole {
			if want := pristineWord(lay, uint64(i)); got != want {
				t.Fatalf("%v: whole-memory fill word %d = %#x, want %#x", proto, i, got, want)
			}
			if got != 0 {
				nonzero++
			}
		}
		if want := int(lay.PoolSize); nonzero != want {
			t.Fatalf("%v: %d nonzero pristine words, want one per pool entry (%d)", proto, nonzero, want)
		}

		bases := []uint64{0, pool - region, pool - page, pool - 7, pool, pool + 1, end - region, end - page, end - 3, end - 1, end, words - 1}
		for _, base := range bases {
			for _, n := range []uint64{1, page, region} {
				dst := make([]uint64, n)
				lay.FillPristine(base, dst)
				for j, got := range dst {
					if want := pristineWord(lay, base+uint64(j)); got != want {
						t.Fatalf("%v: fill(%d, %d words) word %d = %#x, want %#x", proto, base, n, base+uint64(j), got, want)
					}
				}
			}
		}
	}
}
