package memsys

// Store is a sparse, copy-on-write array of 8-byte words, materialized in
// 64 KiB chunks on first write. It backs both the machine-wide data store
// (indexed by physical address / 8) and each node's protocol memory (the
// PP's directory and pointer pool, indexed by protocol-memory address / 8).
// Machines are configured with the paper's memory sizes (megabytes per
// node) but scaled-down workloads touch a small fraction of that, so a
// dense []uint64 spends more host time zeroing, initializing and copying
// memory at construction, reset and snapshot than the simulation spends
// running. A never-written chunk reads its pristine value — zero, or the
// image installed with SetPristine — matching the dense semantics exactly.
type Store struct {
	chunks [][]uint64
	// owned[i] marks chunk i as materialized and private to this store, so
	// Word may hand out pointers into it. A chunk that is not owned is
	// either never written (nil) or referenced by a snapshot (frozen by
	// SnapshotChunks or installed by RestoreShared) and is replaced by a
	// private copy before the next write. Reads go through frozen chunks
	// directly.
	owned []bool
	// pristine writes the nonzero never-written values of words base,
	// base+1, ... into dst, which starts zeroed (nil = all zero). The image
	// must be a pure function of the word index: a chunk table frozen by
	// SnapshotChunks omits never-written chunks, so every store the table
	// is restored into must compute the same values for them.
	pristine func(base uint64, dst []uint64)
}

const (
	storeChunkShift = 13 // 8 Ki words = 64 KiB per chunk
	storeChunkWords = 1 << storeChunkShift
)

// NewStore creates a store covering the given number of words. No data
// memory is allocated until it is written.
func NewStore(words int) *Store {
	n := (words + storeChunkWords - 1) >> storeChunkShift
	return &Store{chunks: make([][]uint64, n), owned: make([]bool, n)}
}

// SetPristine drops every materialized chunk and installs fill as the
// image of never-written words (nil = zero). fill(base, dst) writes the
// nonzero values of words base..base+len(dst)-1 into the zeroed dst, so an
// image that is mostly zero costs only its nonzero words to materialize.
func (s *Store) SetPristine(fill func(base uint64, dst []uint64)) {
	s.RestoreShared(nil)
	s.pristine = fill
}

// Load returns word i. Reads of never-written chunks return the pristine
// value without materializing them. Like Word, it keeps to the inliner's
// budget by handling only chunks this store owns itself.
func (s *Store) Load(i uint64) uint64 {
	if s.owned[i>>storeChunkShift] {
		return s.chunks[i>>storeChunkShift][i&(storeChunkWords-1)]
	}
	return s.loadUnowned(i)
}

// loadUnowned reads word i from a chunk frozen by a snapshot, or computes
// its pristine value.
func (s *Store) loadUnowned(i uint64) uint64 {
	if c := s.chunks[i>>storeChunkShift]; c != nil {
		return c[i&(storeChunkWords-1)]
	}
	if s.pristine == nil {
		return 0
	}
	var w [1]uint64
	s.pristine(i, w[:])
	return w[0]
}

// NextMaterialized returns the smallest word index >= i that lies in a
// materialized chunk, and false if there is none. Words it skips hold
// their pristine values, which lets audits of a mostly untouched image
// cost O(chunks written) instead of O(words configured).
func (s *Store) NextMaterialized(i uint64) (uint64, bool) {
	for ci := i >> storeChunkShift; ci < uint64(len(s.chunks)); ci++ {
		if s.chunks[ci] != nil {
			if first := ci << storeChunkShift; first > i {
				return first, true
			}
			return i, true
		}
	}
	return 0, false
}

// Word returns a writable pointer to word i, materializing its chunk if
// needed and cloning it first when it is shared with a snapshot. Within
// one machine lifetime (no Snapshot/Restore), chunks are never moved or
// freed, so pointers taken before the simulation starts (workload
// initialization) stay valid throughout; after SnapshotChunks or
// RestoreShared, previously taken pointers may refer to a frozen copy and
// must be re-fetched.
func (s *Store) Word(i uint64) *uint64 {
	if s.owned[i>>storeChunkShift] {
		return &s.chunks[i>>storeChunkShift][i&(storeChunkWords-1)]
	}
	return s.own(i)
}

// own gives the store a private, writable chunk for word i — filled with
// pristine values if it was never written, cloned if it is shared with a
// snapshot — and returns the word's address in it.
func (s *Store) own(i uint64) *uint64 {
	ci := i >> storeChunkShift
	c := make([]uint64, storeChunkWords)
	if old := s.chunks[ci]; old != nil {
		copy(c, old)
	} else if s.pristine != nil {
		s.pristine(ci<<storeChunkShift, c)
	}
	s.chunks[ci] = c
	s.owned[ci] = true
	return &c[i&(storeChunkWords-1)]
}

// SnapshotChunks freezes the store's current contents and returns the
// chunk-pointer table. The donor gives up ownership of every chunk, so it
// (and any store restored from the returned table) clones a chunk before
// its first subsequent write — the returned table's data is immutable from
// this point on and may back any number of forks.
func (s *Store) SnapshotChunks() [][]uint64 {
	snap := make([][]uint64, len(s.chunks))
	copy(snap, s.chunks)
	clear(s.owned)
	return snap
}

// RestoreShared replaces the store's contents with a chunk table produced
// by SnapshotChunks on a same-sized store with the same pristine function.
// No installed chunk is owned: the first write to each clones it, leaving
// the snapshot intact. A nil table drops every chunk, returning each word
// to its pristine value.
func (s *Store) RestoreShared(chunks [][]uint64) {
	switch {
	case chunks == nil:
		clear(s.chunks)
	case len(chunks) != len(s.chunks):
		panic("memsys: RestoreShared chunk count mismatch")
	default:
		copy(s.chunks, chunks)
	}
	clear(s.owned)
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
	return v.s.Load(i)
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
		*v.s.Word(i) = x
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
		*v.s.Word(r.idx) = r.val
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
