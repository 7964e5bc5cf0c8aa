package memsys

// Store is a sparse, copy-on-write array of 8-byte words. It backs both the
// machine-wide data store (indexed by physical address / 8) and each node's
// protocol memory (the PP's directory and pointer pool, indexed by
// protocol-memory address / 8). Machines are configured with the paper's
// memory sizes (megabytes per node) but scaled-down workloads touch a small
// fraction of that, so a dense []uint64 spends more host time and resident
// memory zeroing, initializing and copying memory than the simulation
// spends running.
//
// Words live in 4 KiB pages, materialized one page at a time on first
// write. The table holds one pointer per 64 KiB region of configured
// memory; a region's record, allocated on the first write anywhere in it,
// holds its sixteen page pointers and a mask of the pages this store owns.
// A never-written page reads its pristine value — zero, or the image
// installed with SetPristine — matching the dense semantics exactly.
type Store struct {
	// regions has one entry per region. A never-written region points at a
	// shared blank record (see blank); a record with no owned page is
	// shared — blank, or frozen by SnapshotChunks or installed by
	// RestoreShared — and is never written: the first write into it
	// replaces it with a private copy.
	regions []*region
	// pristine writes the nonzero never-written values of words base,
	// base+1, ... into dst, which starts zeroed (nil = all zero). The image
	// must be a pure function of the word index: a frozen table holds no
	// never-written pages, so every store the table is restored into must
	// compute the same values for them.
	pristine func(base uint64, dst []uint64)
}

// region is one 64 KiB region's record: its page pointers and, in bit p of
// owned, whether page p is materialized and private to the store, so Word
// may hand out pointers into it. A page that is not owned is never written
// (nil, or the shared zeroPage in a store with no pristine image), or is
// referenced by a frozen table and is replaced by a private copy before
// the next write. Reads go through frozen pages directly.
type region struct {
	pages [regionPages]*page
	owned uint16
}

type page [pageWords]uint64

const (
	pageShift       = 9 // 512 words = 4 KiB per page
	pageWords       = 1 << pageShift
	regionShift     = 4 // 16 pages = 64 KiB per region
	regionPages     = 1 << regionShift
	regionWordShift = pageShift + regionShift
	regionWords     = 1 << regionWordShift
)

// PageBytes is the size of one materialized page: what Pages counts.
const PageBytes = pageWords * 8

// zeroPage backs every never-written page of a store with no pristine
// image, and zeroRegion every never-written region of one, so Load of such
// a store never calls out. holeRegion is a store with a pristine image's
// never-written region: its nil pages send Load to the pristine function.
// All three are shared by every store in the process, including stores of
// machines running concurrently, and are never written: no page or record
// that is not owned is written through.
var (
	zeroPage   page
	zeroRegion = func() (r region) {
		for p := range r.pages {
			r.pages[p] = &zeroPage
		}
		return r
	}()
	holeRegion region
)

// blank is the shared record of s's never-written regions.
func (s *Store) blank() *region {
	if s.pristine == nil {
		return &zeroRegion
	}
	return &holeRegion
}

// isBlank reports whether r is a shared never-written record.
func isBlank(r *region) bool { return r == &zeroRegion || r == &holeRegion }

// materialized reports whether p holds written data rather than standing
// for a never-written page.
func materialized(p *page) bool { return p != nil && p != &zeroPage }

// Frozen is a store's contents as frozen by SnapshotChunks: immutable, and
// installable into any number of same-sized stores with the same pristine
// image. The zero Frozen is the pristine image itself.
type Frozen struct{ regions []*region }

// NewStore creates a store covering the given number of words. No data
// memory is allocated until it is written.
func NewStore(words int) *Store {
	s := &Store{regions: make([]*region, (words+regionWords-1)>>regionWordShift)}
	s.RestoreShared(Frozen{})
	return s
}

// SetPristine drops every materialized page and installs fill as the image
// of never-written words (nil = zero). fill(base, dst) writes the nonzero
// values of words base..base+len(dst)-1 into the zeroed dst, so an image
// that is mostly zero costs only its nonzero words to materialize.
func (s *Store) SetPristine(fill func(base uint64, dst []uint64)) {
	s.pristine = fill
	s.RestoreShared(Frozen{})
}

// Load returns word i. Reads of never-written pages return the pristine
// value without materializing them.
func (s *Store) Load(i uint64) uint64 {
	if p := s.page(i); p != nil {
		return p[i&(pageWords-1)]
	}
	return s.loadPristine(i)
}

// page returns the page holding word i: nil only for a never-written page
// of a store with a pristine image, so a store with none (the data store)
// reads every word through it without a call. The two-level lookup plus
// a call is over the inliner's budget, so Load itself is a call; View.Load,
// every simulated processor's read, inlines this instead.
func (s *Store) page(i uint64) *page {
	return s.regions[i>>regionWordShift].pages[i>>pageShift&(regionPages-1)]
}

// loadPristine computes the pristine value of never-written word i.
func (s *Store) loadPristine(i uint64) uint64 {
	if s.pristine == nil {
		return 0
	}
	var w [1]uint64
	s.pristine(i, w[:])
	return w[0]
}

// NextMaterialized returns the smallest word index >= i that lies in a
// materialized page, and false if there is none. Words it skips hold their
// pristine values, which lets audits of a mostly untouched image cost
// O(regions configured + pages written) instead of O(words configured).
func (s *Store) NextMaterialized(i uint64) (uint64, bool) {
	for pg := i >> pageShift; pg>>regionShift < uint64(len(s.regions)); pg++ {
		r := s.regions[pg>>regionShift]
		if isBlank(r) {
			pg |= regionPages - 1
			continue
		}
		if materialized(r.pages[pg&(regionPages-1)]) {
			return max(i, pg<<pageShift), true
		}
	}
	return 0, false
}

// Pages returns the number of materialized pages: written by this store,
// or frozen by a table it was restored from or snapshotted into.
func (s *Store) Pages() int {
	n := 0
	for _, r := range s.regions {
		if isBlank(r) {
			continue
		}
		for _, p := range r.pages {
			if materialized(p) {
				n++
			}
		}
	}
	return n
}

// Word returns a writable pointer to word i, materializing its page if
// needed and cloning it first when it is shared with a frozen table.
// Within one machine lifetime (no Snapshot/Restore), pages are never moved
// or freed, so pointers taken before the simulation starts (workload
// initialization) stay valid throughout; after SnapshotChunks or
// RestoreShared, previously taken pointers may refer to a frozen copy and
// must be re-fetched.
func (s *Store) Word(i uint64) *uint64 {
	if w := s.Owned(i); w != nil {
		return w
	}
	return s.own(i)
}

// Owned returns a writable pointer to word i if the store already owns its
// page, and nil before the page's first write since the store last froze
// or restored it, when Word must materialize or clone the page. It inlines
// (Word does not), so a writer that tries Owned first makes a call only
// on a page's first write.
func (s *Store) Owned(i uint64) *uint64 {
	r := s.regions[i>>regionWordShift]
	if p := i >> pageShift & (regionPages - 1); r.owned>>p&1 != 0 {
		return &r.pages[p][i&(pageWords-1)]
	}
	return nil
}

// own gives the store a private, writable page for word i — filled with
// pristine values if it was never written, cloned if it is shared with a
// frozen table — in a private region record, and returns the word's
// address in it.
func (s *Store) own(i uint64) *uint64 {
	r := s.regions[i>>regionWordShift]
	if r.owned == 0 {
		r = &region{pages: r.pages}
		s.regions[i>>regionWordShift] = r
	}
	pi := i >> pageShift & (regionPages - 1)
	p := new(page)
	if old := r.pages[pi]; materialized(old) {
		*p = *old
	} else if old == nil && s.pristine != nil {
		s.pristine(i&^(pageWords-1), p[:])
	}
	r.pages[pi] = p
	r.owned |= 1 << pi
	return &p[i&(pageWords-1)]
}

// SnapshotChunks freezes the store's current contents and returns them.
// It copies the region table and gives up ownership of every page, so the
// store (and any store restored from the returned table) copies a region
// record and one page before its first subsequent write to that page —
// the returned table is immutable from this point on and may back any
// number of forks.
func (s *Store) SnapshotChunks() Frozen {
	f := Frozen{regions: make([]*region, len(s.regions))}
	copy(f.regions, s.regions)
	for _, r := range s.regions {
		// Only private records are written: shared ones, the blank
		// records above all, may be read by other machines meanwhile.
		if r.owned != 0 {
			r.owned = 0
		}
	}
	return f
}

// RestoreShared replaces the store's contents with a table produced by
// SnapshotChunks on a same-sized store with the same pristine function.
// No installed page is owned: the first write to each clones it, leaving
// the snapshot intact. The zero Frozen drops every page, returning each
// word to its pristine value.
func (s *Store) RestoreShared(f Frozen) {
	switch {
	case f.regions == nil:
		b := s.blank()
		for ri := range s.regions {
			s.regions[ri] = b
		}
	case len(f.regions) != len(s.regions):
		panic("memsys: RestoreShared region count mismatch")
	default:
		copy(s.regions, f.regions)
	}
}

// View is one node's window-quantized view of the backing store: writes
// buffer in a private append log and publish to the shared Store only when
// Flush runs (at lookahead-window boundaries, in node order, on the
// engine's coordinating goroutine). Reads see the node's own unflushed
// writes immediately — exact read-own-writes — while other nodes' writes
// become visible at the next boundary.
//
// This quantization is what lets both engines agree bit-for-bit: during a
// window no node can observe another node's in-window stores, so the
// parallel engine's concurrent window execution is indistinguishable from
// the sequential engine's interleaved one. It is safe for the simulated
// programs because conflicting cross-node accesses to the same word are
// serialized by the coherence protocol at least two network transits (two
// windows) apart, and synchronization spin loops tolerate a bounded,
// deterministic staleness of at most one window.
type View struct {
	s   *Store
	log []writeRec
	// filter has bit i&255 set for every word i in log, so Load scans the
	// log only for words that may be in it: most loads in a window touch
	// words the node has not stored to in that window.
	filter       [4]uint64
	writeThrough bool
}

type writeRec struct {
	idx uint64
	val uint64
}

// NewView returns an empty write-buffering view of s.
func NewView(s *Store) *View { return &View{s: s} }

// Load returns word i as seen by this node: its own latest unflushed write
// if any, else the shared store. Only a word whose filter bit is set can be
// in the log; the log stays short (a node's stores in one window), so for
// those a backward scan is cheaper than a map.
func (v *View) Load(i uint64) uint64 {
	if v.filter[i>>6&3]&(1<<(i&63)) != 0 {
		return v.loadLogged(i)
	}
	if p := v.s.page(i); p != nil {
		return p[i&(pageWords-1)]
	}
	return v.s.loadPristine(i)
}

// loadLogged is Load for a word the filter cannot rule out of the log.
func (v *View) loadLogged(i uint64) uint64 {
	for j := len(v.log) - 1; j >= 0; j-- {
		if v.log[j].idx == i {
			return v.log[j].val
		}
	}
	return v.s.Load(i)
}

// Store buffers a write of word i (publishes it immediately in
// write-through mode).
func (v *View) Store(i, x uint64) {
	if v.writeThrough {
		if w := v.s.Owned(i); w != nil {
			*w = x
		} else {
			*v.s.own(i) = x
		}
		return
	}
	v.log = append(v.log, writeRec{idx: i, val: x})
	v.filter[i>>6&3] |= 1 << (i & 63)
}

// SetWriteThrough makes every Store publish to the shared backing
// immediately, bypassing the window log. Sampled runs use it: synchronous
// fast-forward chains complete cross-node transfers in zero engine time,
// so window-quantized visibility would expose stale data mid-chain, and
// sampled execution is serialized (single engine worker) so the eager
// publish is race-free. Equivalent to flushing after every store, minus
// the log traffic.
func (v *View) SetWriteThrough(wt bool) { v.writeThrough = wt }

// Flush publishes buffered writes to the shared store in program order and
// empties the log.
func (v *View) Flush() {
	for _, r := range v.log {
		if w := v.s.Owned(r.idx); w != nil {
			*w = r.val
		} else {
			*v.s.own(r.idx) = r.val
		}
	}
	v.log = v.log[:0]
	v.filter = [4]uint64{}
}

// Pending reports how many buffered writes have not been flushed.
// Snapshot capture asserts this is zero after a boundary flush.
func (v *View) Pending() int { return len(v.log) }

// Reset empties the log. Write-through mode is configuration, not state:
// it stays as set.
func (v *View) Reset() {
	v.log = v.log[:0]
	v.filter = [4]uint64{}
}
