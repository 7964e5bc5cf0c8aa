package memsys

import "testing"

// A snapshot must be immutable: writes by the donor after SnapshotChunks
// land in private clones, and a store restored from the snapshot sees the
// frozen values until it writes its own clones.
func TestStoreSnapshotCopyOnWrite(t *testing.T) {
	words := 3 * storeChunkWords
	s := NewStore(words)
	*s.Word(0) = 11
	*s.Word(uint64(storeChunkWords)) = 22 // chunk 1; chunk 2 untouched

	snap := s.SnapshotChunks()

	// Donor write after snapshot clones the chunk; snapshot data intact.
	*s.Word(1) = 99
	if got := snap[0][1]; got != 0 {
		t.Fatalf("snapshot chunk mutated by donor write: word1=%d", got)
	}
	if got := s.Load(0); got != 11 {
		t.Fatalf("donor lost pre-snapshot value: word0=%d", got)
	}

	// Fork restored from snapshot sees frozen values.
	f := NewStore(words)
	f.RestoreShared(snap)
	if got := f.Load(0); got != 11 {
		t.Fatalf("fork word0=%d, want 11", got)
	}
	if got := f.Load(1); got != 0 {
		t.Fatalf("fork sees donor's post-snapshot write: word1=%d", got)
	}
	if got := f.Load(uint64(storeChunkWords)); got != 22 {
		t.Fatalf("fork chunk1 word=%d, want 22", got)
	}

	// Fork write clones; donor and snapshot unaffected.
	*f.Word(0) = 77
	if got := f.Load(0); got != 77 {
		t.Fatalf("fork write lost: word0=%d", got)
	}
	if got := s.Load(0); got != 11 {
		t.Fatalf("fork write leaked into donor: word0=%d", got)
	}
	if got := snap[0][0]; got != 11 {
		t.Fatalf("fork write leaked into snapshot: word0=%d", got)
	}

	// Untouched chunk stays shared (nil in both snapshot and fork).
	if snap[2] != nil {
		t.Fatalf("untouched chunk materialized in snapshot")
	}
	if got := f.Load(uint64(2 * storeChunkWords)); got != 0 {
		t.Fatalf("untouched chunk reads %d, want 0", got)
	}
}

// Two forks of one snapshot must not observe each other's writes.
func TestStoreForkIsolation(t *testing.T) {
	s := NewStore(storeChunkWords)
	*s.Word(5) = 1
	snap := s.SnapshotChunks()

	a := NewStore(storeChunkWords)
	a.RestoreShared(snap)
	b := NewStore(storeChunkWords)
	b.RestoreShared(snap)

	*a.Word(5) = 100
	*b.Word(5) = 200
	if got := a.Load(5); got != 100 {
		t.Fatalf("fork a word5=%d, want 100", got)
	}
	if got := b.Load(5); got != 200 {
		t.Fatalf("fork b word5=%d, want 200", got)
	}
	if got := s.Load(5); got != 1 {
		t.Fatalf("donor word5=%d, want 1", got)
	}
}

func TestStoreReset(t *testing.T) {
	s := NewStore(storeChunkWords)
	*s.Word(3) = 42
	s.SnapshotChunks()
	s.RestoreShared(nil)
	if got := s.Load(3); got != 0 {
		t.Fatalf("after RestoreShared(nil) word3=%d, want 0", got)
	}
	// Post-reset writes land in a fresh chunk, not the frozen one.
	*s.Word(3) = 7
	if got := s.Load(3); got != 7 {
		t.Fatalf("post-reset write lost: word3=%d", got)
	}
}

// A store with a pristine function reads never-written words from it
// without materializing anything, fills a chunk from it on first write, and
// agrees with a fork restored from a table that omits the untouched chunks.
func TestStorePristine(t *testing.T) {
	words := 2*storeChunkWords + 100 // partial last chunk
	pristine := func(i uint64) uint64 { return i*3 + 1 }
	fill := func(base uint64, dst []uint64) {
		for j := range dst {
			dst[j] = pristine(base + uint64(j))
		}
	}
	s := NewStore(words)
	s.SetPristine(fill)
	last := uint64(words - 1)
	for _, i := range []uint64{0, storeChunkWords - 1, storeChunkWords, last} {
		if got := s.Load(i); got != pristine(i) {
			t.Fatalf("pristine word %d = %d, want %d", i, got, pristine(i))
		}
	}
	if _, ok := s.NextMaterialized(0); ok {
		t.Fatal("Load materialized a chunk")
	}

	*s.Word(storeChunkWords + 7) = 99
	if got := s.Load(storeChunkWords + 8); got != pristine(storeChunkWords+8) {
		t.Fatalf("neighbor of first write = %d, want its pristine value", got)
	}
	if w, ok := s.NextMaterialized(3); !ok || w != storeChunkWords {
		t.Fatalf("NextMaterialized(3) = %d,%v, want first word of chunk 1", w, ok)
	}
	if w, ok := s.NextMaterialized(storeChunkWords + 5); !ok || w != storeChunkWords+5 {
		t.Fatalf("NextMaterialized inside a written chunk = %d,%v, want its argument", w, ok)
	}
	if _, ok := s.NextMaterialized(2 * storeChunkWords); ok {
		t.Fatal("NextMaterialized found a chunk past the last written one")
	}

	f := NewStore(words)
	f.SetPristine(fill)
	f.RestoreShared(s.SnapshotChunks())
	for _, i := range []uint64{0, storeChunkWords + 7, storeChunkWords + 8, last} {
		if f.Load(i) != s.Load(i) {
			t.Fatalf("fork word %d = %d, donor %d", i, f.Load(i), s.Load(i))
		}
	}

	*s.Word(0) = 5
	s.SetPristine(nil)
	if got := s.Load(0); got != 0 {
		t.Fatalf("SetPristine kept a written chunk: word0=%d", got)
	}
}

// A pristine image that is nonzero only in a pool of words — like the
// protocol free list — reads and materializes exactly like its word-by-word
// definition in every chunk: wholly below the pool, straddling its start,
// inside it, straddling its end and wholly above it, and in the store's
// partial last chunk. fill writes only the pool words, so every other word
// of a fresh chunk must come out zero.
func TestStorePristineFill(t *testing.T) {
	const (
		words     = 5*storeChunkWords + 100
		pool, end = storeChunkWords + 300, 3*storeChunkWords + 17
	)
	word := func(i uint64) uint64 {
		if i < pool || i >= end {
			return 0
		}
		return (i-pool)<<8 | 1
	}
	calls := 0
	fill := func(base uint64, dst []uint64) {
		calls++
		for i := max(base, pool); i < min(base+uint64(len(dst)), end); i++ {
			dst[i-base] = word(i)
		}
	}
	s := NewStore(words)
	s.SetPristine(fill)
	check := func(when string, chunk uint64) {
		t.Helper()
		for i := chunk * storeChunkWords; i < min((chunk+1)*storeChunkWords, words); i++ {
			if got := s.Load(i); got != word(i) {
				t.Fatalf("%s: chunk %d word %d = %#x, want %#x", when, chunk, i, got, word(i))
			}
		}
	}
	for chunk := uint64(0); chunk < 6; chunk++ {
		check("unowned", chunk)
	}
	calls = 0
	for chunk := uint64(0); chunk < 6; chunk++ {
		p := s.Word(chunk*storeChunkWords + 5)
		if *p != word(chunk*storeChunkWords+5) {
			t.Fatalf("chunk %d: Word = %#x before any write", chunk, *p)
		}
		check("owned", chunk)
	}
	if calls != 6 {
		t.Fatalf("materializing 6 chunks called fill %d times, want once each", calls)
	}
}

func TestViewPendingAndReset(t *testing.T) {
	s := NewStore(storeChunkWords)
	v := NewView(s)
	v.Store(1, 10)
	v.Store(2, 20)
	if v.Pending() != 2 {
		t.Fatalf("Pending=%d, want 2", v.Pending())
	}
	v.Flush()
	if v.Pending() != 0 {
		t.Fatalf("Pending after flush=%d, want 0", v.Pending())
	}
	v.Store(3, 30)
	v.SetWriteThrough(true)
	v.Reset()
	if v.Pending() != 0 {
		t.Fatalf("Pending after Reset=%d, want 0", v.Pending())
	}
	v.Store(4, 40)
	if s.Load(4) != 40 {
		t.Fatalf("Reset cleared write-through mode")
	}
	if s.Load(3) != 0 {
		t.Fatalf("Reset published an unflushed write")
	}
}
