package memsys

import "testing"

// A snapshot must be immutable: writes by the donor after SnapshotChunks
// land in private clones, and a store restored from the snapshot sees the
// frozen values until it writes its own clones.
func TestStoreSnapshotCopyOnWrite(t *testing.T) {
	words := 3 * regionWords
	s := NewStore(words)
	*s.Word(0) = 11
	*s.Word(uint64(regionWords)) = 22 // region 1; region 2 untouched

	snap := s.SnapshotChunks()

	// Donor write after snapshot clones the page; snapshot data intact.
	*s.Word(1) = 99
	if got := snap.regions[0].pages[0][1]; got != 0 {
		t.Fatalf("snapshot page mutated by donor write: word1=%d", got)
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
	if got := f.Load(uint64(regionWords)); got != 22 {
		t.Fatalf("fork region 1 word=%d, want 22", got)
	}

	// Fork write clones; donor and snapshot unaffected.
	*f.Word(0) = 77
	if got := f.Load(0); got != 77 {
		t.Fatalf("fork write lost: word0=%d", got)
	}
	if got := s.Load(0); got != 11 {
		t.Fatalf("fork write leaked into donor: word0=%d", got)
	}
	if got := snap.regions[0].pages[0][0]; got != 11 {
		t.Fatalf("fork write leaked into snapshot: word0=%d", got)
	}

	// Untouched region stays shared (blank in both snapshot and fork).
	if !isBlank(snap.regions[2]) || !isBlank(f.regions[2]) {
		t.Fatalf("untouched region materialized in snapshot or fork")
	}
	if got := f.Load(uint64(2 * regionWords)); got != 0 {
		t.Fatalf("untouched region reads %d, want 0", got)
	}
}

// Two forks of one snapshot must not observe each other's writes.
func TestStoreForkIsolation(t *testing.T) {
	s := NewStore(regionWords)
	*s.Word(5) = 1
	snap := s.SnapshotChunks()

	a := NewStore(regionWords)
	a.RestoreShared(snap)
	b := NewStore(regionWords)
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
	s := NewStore(regionWords)
	*s.Word(3) = 42
	s.SnapshotChunks()
	s.RestoreShared(Frozen{})
	if got := s.Load(3); got != 0 {
		t.Fatalf("after RestoreShared(Frozen{}) word3=%d, want 0", got)
	}
	// Post-reset writes land in a fresh page, not the frozen one.
	*s.Word(3) = 7
	if got := s.Load(3); got != 7 {
		t.Fatalf("post-reset write lost: word3=%d", got)
	}
}

// A store with a pristine function reads never-written words from it
// without materializing anything, fills a page from it on first write, and
// agrees with a fork restored from a table that omits the untouched pages.
func TestStorePristine(t *testing.T) {
	words := 2*regionWords + 100 // partial last region
	pristine := func(i uint64) uint64 { return i*3 + 1 }
	fill := func(base uint64, dst []uint64) {
		for j := range dst {
			dst[j] = pristine(base + uint64(j))
		}
	}
	s := NewStore(words)
	s.SetPristine(fill)
	last := uint64(words - 1)
	for _, i := range []uint64{0, regionWords - 1, regionWords, last} {
		if got := s.Load(i); got != pristine(i) {
			t.Fatalf("pristine word %d = %d, want %d", i, got, pristine(i))
		}
	}
	if _, ok := s.NextMaterialized(0); ok {
		t.Fatal("Load materialized a page")
	}

	*s.Word(regionWords + 7) = 99
	if got := s.Load(regionWords + 8); got != pristine(regionWords+8) {
		t.Fatalf("neighbor of first write = %d, want its pristine value", got)
	}
	if w, ok := s.NextMaterialized(3); !ok || w != regionWords {
		t.Fatalf("NextMaterialized(3) = %d,%v, want first word of region 1", w, ok)
	}
	if w, ok := s.NextMaterialized(regionWords + 5); !ok || w != regionWords+5 {
		t.Fatalf("NextMaterialized inside a written page = %d,%v, want its argument", w, ok)
	}
	if _, ok := s.NextMaterialized(regionWords + pageWords); ok {
		t.Fatal("NextMaterialized found a page past the last written one")
	}

	f := NewStore(words)
	f.SetPristine(fill)
	f.RestoreShared(s.SnapshotChunks())
	for _, i := range []uint64{0, regionWords + 7, regionWords + 8, last} {
		if f.Load(i) != s.Load(i) {
			t.Fatalf("fork word %d = %d, donor %d", i, f.Load(i), s.Load(i))
		}
	}

	*s.Word(0) = 5
	s.SetPristine(nil)
	if got := s.Load(0); got != 0 {
		t.Fatalf("SetPristine kept a written page: word0=%d", got)
	}
}

// A pristine image that is nonzero only in a pool of words — like the
// protocol free list — reads and materializes exactly like its word-by-word
// definition in every page: wholly below the pool, straddling its start,
// inside it, straddling its end and wholly above it, and in the store's
// partial last page. fill writes only the pool words, so every other word
// of a fresh page must come out zero.
func TestStorePristineFill(t *testing.T) {
	const (
		words     = 5*pageWords + 100
		pool, end = pageWords + 300, 3*pageWords + 17
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
	check := func(when string, pg uint64) {
		t.Helper()
		for i := pg * pageWords; i < min((pg+1)*pageWords, words); i++ {
			if got := s.Load(i); got != word(i) {
				t.Fatalf("%s: page %d word %d = %#x, want %#x", when, pg, i, got, word(i))
			}
		}
	}
	for pg := uint64(0); pg < 6; pg++ {
		check("unowned", pg)
	}
	calls = 0
	for pg := uint64(0); pg < 6; pg++ {
		p := s.Word(pg*pageWords + 5)
		if *p != word(pg*pageWords+5) {
			t.Fatalf("page %d: Word = %#x before any write", pg, *p)
		}
		check("owned", pg)
	}
	if calls != 6 {
		t.Fatalf("materializing 6 pages called fill %d times, want once each", calls)
	}
}

func TestViewPendingAndReset(t *testing.T) {
	s := NewStore(regionWords)
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

// One write materializes exactly one 4 KiB page, in one region record.
func TestStoreWriteMaterializesOnePage(t *testing.T) {
	s := NewStore(64 * regionWords)
	if n := s.Pages(); n != 0 {
		t.Fatalf("fresh store has %d pages", n)
	}
	i := uint64(5*regionWords + 3*pageWords + 17)
	*s.Word(i) = 1
	if n := s.Pages(); n != 1 {
		t.Fatalf("one write materialized %d pages, want 1", n)
	}
	r := s.regions[i>>regionWordShift]
	if r.owned != 1<<3 {
		t.Fatalf("region owns pages %016b, want only page 3", r.owned)
	}
	for ri, other := range s.regions {
		if other != r && !isBlank(other) {
			t.Fatalf("region %d has a record too", ri)
		}
	}
	*s.Word(i + 1) = 2
	if n := s.Pages(); n != 1 {
		t.Fatalf("a second write to the page left %d pages, want 1", n)
	}
}

// A write after SnapshotChunks clones the one page written and the region's
// record, and keeps sharing the region's other pages with the snapshot.
func TestStoreSnapshotClonesOnePage(t *testing.T) {
	s := NewStore(2 * regionWords)
	for pg := uint64(0); pg < regionPages; pg++ {
		*s.Word(pg*pageWords + 1) = pg + 1
	}
	snap := s.SnapshotChunks()
	*s.Word(4*pageWords + 1) = 100
	frozen, r := snap.regions[0], s.regions[0]
	if r == frozen {
		t.Fatal("a write after the snapshot changed the frozen region record")
	}
	for pg := range regionPages {
		if shared := r.pages[pg] == frozen.pages[pg]; shared != (pg != 4) {
			t.Fatalf("page %d shared with the snapshot = %v after a write to page 4", pg, shared)
		}
	}
	if r.owned != 1<<4 || frozen.owned != 0 {
		t.Fatalf("owned masks: store %016b, snapshot %016b; want page 4 and none", r.owned, frozen.owned)
	}
	if got := frozen.pages[4][1]; got != 5 {
		t.Fatalf("snapshot page 4 word 1 = %d, want 5", got)
	}
	if n := s.Pages(); n != regionPages {
		t.Fatalf("Pages = %d, want %d", n, regionPages)
	}
}

// NextMaterialized skips the unwritten pages inside a written region, in a
// store with and without a pristine image.
func TestStoreNextMaterializedSkipsPages(t *testing.T) {
	for _, fill := range []func(uint64, []uint64){nil, func(base uint64, dst []uint64) { dst[0] = base }} {
		s := NewStore(3 * regionWords)
		s.SetPristine(fill)
		a, b := uint64(regionWords+3*pageWords+9), uint64(regionWords+9*pageWords)
		*s.Word(a) = 1
		*s.Word(b) = 1
		for _, c := range []struct{ from, want uint64 }{
			{0, regionWords + 3*pageWords},
			{a, a},
			{a + 1, a + 1},
			{regionWords + 4*pageWords, b},
			{b - 1, b},
			{b + pageWords - 1, b + pageWords - 1},
		} {
			if got, ok := s.NextMaterialized(c.from); !ok || got != c.want {
				t.Fatalf("pristine %v: NextMaterialized(%d) = %d,%v, want %d", fill != nil, c.from, got, ok, c.want)
			}
		}
		if got, ok := s.NextMaterialized(b + pageWords); ok {
			t.Fatalf("pristine %v: NextMaterialized past the last written page = %d", fill != nil, got)
		}
	}
}

// fuzzIdx are the words FuzzStoreOps addresses: both ends of pages, of
// regions, of the pristine pool and of the store.
var fuzzIdx = []uint64{
	0, 1, pageWords - 1, pageWords, fuzzPoolLo - 1, fuzzPoolLo, 2*pageWords + 3,
	regionWords - 1, regionWords, regionWords + 5*pageWords, fuzzPoolHi - 1, fuzzPoolHi,
	2 * regionWords, 2*regionWords + 511, fuzzWords - 1,
}

const (
	fuzzWords  = 2*regionWords + 700 // a partial last region and page
	fuzzPoolLo = pageWords + 100     // the pristine image is nonzero in [lo, hi)
	fuzzPoolHi = regionWords + 2*pageWords + 5
)

// fuzzPristine is the pristine image FuzzStoreOps installs: nonzero only in
// a pool straddling page and region boundaries, like the protocol free list.
func fuzzPristine(i uint64) uint64 {
	if i < fuzzPoolLo || i >= fuzzPoolHi {
		return 0
	}
	return i*0x9E3779B9 | 1
}

func fuzzFill(base uint64, dst []uint64) {
	for j := range dst {
		dst[j] = fuzzPristine(base + uint64(j))
	}
}

// refStore is Store's specification over the words in fuzzIdx: their
// values (words[j] is word fuzzIdx[j]), the set of pages materialized, and
// whether the pristine image is installed.
type refStore struct {
	words    []uint64
	pages    map[uint64]bool
	pristine bool
}

func (r *refStore) reset(pristine bool) {
	r.pristine, r.pages, r.words = pristine, map[uint64]bool{}, make([]uint64, len(fuzzIdx))
	for j, i := range fuzzIdx {
		if pristine {
			r.words[j] = fuzzPristine(i)
		}
	}
}

func (r *refStore) clone() refStore {
	c := refStore{words: append([]uint64(nil), r.words...), pages: map[uint64]bool{}, pristine: r.pristine}
	for pg := range r.pages {
		c.pages[pg] = true
	}
	return c
}

// FuzzStoreOps drives three stores and their dense references through the
// same Word, Load, NextMaterialized, SnapshotChunks, RestoreShared,
// SetPristine and Pages sequence. One snapshot at a time is kept, so two
// stores restored from it are two forks of one snapshot; a snapshot is
// restored only into a store with its pristine image, as RestoreShared
// requires. After every operation every addressed word of every store must
// match its reference, and the process-wide blank page and records must
// still be blank. Each triple of bytes is an operation, a store and a word;
// go test runs the seed corpus.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 0, 4, 1, 0, 4, 2, 0, 0, 1, 1, 0, 2, 1, 1, 1, 1, 1, 2, 1}) // two forks write one word
	f.Add([]byte{6, 0, 0, 0, 0, 5, 3, 0, 0, 0, 0, 6, 4, 1, 0, 1, 1, 6, 2, 1, 4, 7, 1, 0}) // pristine snapshot, fork
	f.Add([]byte{0, 0, 7, 0, 0, 9, 2, 0, 8, 2, 0, 0, 5, 0, 0, 2, 0, 0, 7, 0, 0, 0, 0, 3}) // reset drops pages
	f.Add([]byte{6, 1, 0, 0, 1, 4, 0, 1, 6, 3, 1, 0, 6, 1, 0, 4, 1, 0, 1, 1, 5, 2, 1, 1}) // SetPristine after a snapshot
	f.Fuzz(func(t *testing.T, ops []byte) {
		var stores [3]*Store
		var refs [3]refStore
		for k := range stores {
			stores[k] = NewStore(fuzzWords)
			refs[k].reset(false)
		}
		var snap Frozen
		var snapRef refStore
		haveSnap := false
		for n := 0; n+2 < len(ops); n += 3 {
			k := int(ops[n+1]) % len(stores)
			s, r := stores[k], &refs[k]
			j := int(ops[n+2]) % len(fuzzIdx)
			i := fuzzIdx[j]
			// kind: 0 Word, 1 Owned or else Word (the writers' fast
			// path), 2 Load, 3 SnapshotChunks, 4 RestoreShared of the
			// snapshot, 5 RestoreShared(Frozen{}), 6 SetPristine toggles
			// the image, 7 NextMaterialized and Pages.
			switch ops[n] % 8 {
			case 0, 1:
				v := uint64(n)<<8 | uint64(ops[n+2])
				w := s.Owned(i)
				if own := s.regions[i>>regionWordShift].owned>>(i>>pageShift&(regionPages-1))&1 != 0; own != (w != nil) {
					t.Fatalf("op %d: store %d Owned(%d) = %p with the page owned %v", n/3, k, i, w, own)
				}
				if w == nil || ops[n]%8 == 0 {
					w = s.Word(i)
				}
				*w = v
				r.words[j] = v
				r.pages[i>>pageShift] = true
			case 2:
				if got, want := s.Load(i), r.words[j]; got != want {
					t.Fatalf("op %d: store %d Load(%d) = %#x, reference %#x", n/3, k, i, got, want)
				}
			case 3:
				snap, snapRef, haveSnap = s.SnapshotChunks(), r.clone(), true
			case 4:
				if !haveSnap {
					continue
				}
				if r.pristine != snapRef.pristine {
					s.SetPristine(map[bool]func(uint64, []uint64){true: fuzzFill}[snapRef.pristine])
				}
				s.RestoreShared(snap)
				*r = snapRef.clone()
			case 5:
				s.RestoreShared(Frozen{})
				r.reset(r.pristine)
			case 6:
				if r.pristine {
					s.SetPristine(nil)
				} else {
					s.SetPristine(fuzzFill)
				}
				r.reset(!r.pristine)
			default:
				want, wantOK := uint64(0), false
				for pg := range r.pages {
					if w := max(i, pg<<pageShift); pg >= i>>pageShift && (!wantOK || w < want) {
						want, wantOK = w, true
					}
				}
				if got, ok := s.NextMaterialized(i); got != want || ok != wantOK {
					t.Fatalf("op %d: store %d NextMaterialized(%d) = %d,%v, reference %d,%v", n/3, k, i, got, ok, want, wantOK)
				}
				if got := s.Pages(); got != len(r.pages) {
					t.Fatalf("op %d: store %d Pages = %d, reference %d", n/3, k, got, len(r.pages))
				}
			}
			for k, s := range stores {
				for j, w := range fuzzIdx {
					if got, want := s.Load(w), refs[k].words[j]; got != want {
						t.Fatalf("op %d: store %d word %d = %#x, reference %#x", n/3, k, w, got, want)
					}
				}
			}
			if zeroPage != (page{}) || holeRegion != (region{}) || zeroRegion.owned != 0 {
				t.Fatalf("op %d: a shared blank page or record was written", n/3)
			}
			for _, p := range zeroRegion.pages {
				if p != &zeroPage {
					t.Fatalf("op %d: the shared zero region lost its zero page", n/3)
				}
			}
		}
	})
}
