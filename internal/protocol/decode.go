package protocol

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/memsys"
)

// DirInfo is a decoded directory header, for tests and invariant checks.
type DirInfo struct {
	Dirty    bool
	Pending  bool
	Local    bool
	Overflow bool
	Owner    arch.NodeID
	Sharers  []arch.NodeID
	Acks     int
}

// Decode reads the directory state of localLine from a node's protocol
// memory image, for either protocol program.
func (l Layout) Decode(mem *memsys.Store, localLine uint64) (DirInfo, error) {
	var d DirInfo
	err := l.DecodeInto(mem, localLine, &d)
	return d, err
}

// DecodeInto is Decode into the caller's d. It reuses d.Sharers' storage,
// so a caller that decodes line after line into one DirInfo allocates
// only while that buffer grows to the longest sharer set. On a sharer-list
// cycle d holds the entries read before it.
func (l Layout) DecodeInto(mem *memsys.Store, localLine uint64, d *DirInfo) error {
	w := mem.Load(l.DirOffset(localLine) / 8)
	sharers := d.Sharers[:0]
	if l.Proto == arch.ProtoBitVector {
		*d = DirInfo{
			Dirty:   w>>BDirty&1 == 1,
			Pending: w>>BPending&1 == 1,
			Owner:   arch.NodeID(w >> BVOwnerPos & (1<<BVOwnerW - 1)),
			Acks:    int(w >> BVAckPos & (1<<BVAckW - 1)),
		}
	} else {
		*d = DirInfo{
			Dirty:    w>>BDirty&1 == 1,
			Pending:  w>>BPending&1 == 1,
			Local:    w>>BLocal&1 == 1,
			Overflow: w>>BOvfl&1 == 1,
			Owner:    arch.NodeID(w >> OwnerPos & (1<<OwnerW - 1)),
			Acks:     int(w >> AckPos & (1<<AckW - 1)),
		}
	}
	d.Sharers = sharers
	return l.eachSharer(mem, localLine, w, func(n arch.NodeID) { d.Sharers = append(d.Sharers, n) })
}

// eachSharer calls visit for each sharer recorded in directory header w of
// localLine, in list (or bit) order: a bit vector's presence bits, or the
// sharer list's pool entries, bounded by the pool size.
func (l Layout) eachSharer(mem *memsys.Store, localLine, w uint64, visit func(arch.NodeID)) error {
	if l.Proto == arch.ProtoBitVector {
		vec := w >> BVPresPos & (1<<BVPresW - 1)
		for n := 0; n < BVPresW; n++ {
			if vec>>n&1 == 1 {
				visit(arch.NodeID(n))
			}
		}
		return nil
	}
	if w>>BList&1 == 0 {
		return nil
	}
	idx := w >> HeadPos & (1<<HeadW - 1)
	for steps := 0; ; steps++ {
		if steps > int(l.PoolSize) {
			return fmt.Errorf("protocol: sharer list cycle at line %d", localLine)
		}
		e := mem.Load(l.poolWord(idx))
		visit(arch.NodeID(e >> NodePos & (1<<NodeW - 1)))
		next := e >> NextPos & (1<<NextW - 1)
		if next == NullPtr {
			return nil
		}
		idx = next
	}
}

// SharerCount sums the sharer-list lengths of local lines [0, nlines).
// Directory headers in never-written pages are pristine — no sharers — and
// are skipped, so the sum costs O(directory pages written).
func (l Layout) SharerCount(mem *memsys.Store, nlines uint64) (int, error) {
	base := uint64(l.DirBase) / 8
	n := 0
	count := func(arch.NodeID) { n++ }
	for w, ok := mem.NextMaterialized(base); ok && w < base+nlines; w, ok = mem.NextMaterialized(w + 1) {
		if err := l.eachSharer(mem, w-base, mem.Load(w), count); err != nil {
			return n, fmt.Errorf("line %d: %w", w-base, err)
		}
	}
	return n, nil
}

// AuditPool checks one quiesced node's pointer-pool accounting: the free
// list headed by freeHead (the PP's FreeHeadReg) plus every recorded sharer
// entry must cover the pool exactly, with no cycles. A layout with no pool,
// the bit-vector directory's, has nothing to audit. Both counts skip
// protocol memory no handler ever wrote, so the audit costs what the run
// touched.
func (l Layout) AuditPool(mem *memsys.Store, freeHead uint64) error {
	if l.PoolSize == 0 {
		return nil
	}
	free, err := l.FreeCount(mem, freeHead)
	if err != nil {
		return err
	}
	inUse, err := l.SharerCount(mem, uint64(l.PtrBase-l.DirBase)/8)
	if err != nil {
		return err
	}
	if free+inUse != int(l.PoolSize) {
		return fmt.Errorf("pool leak: free %d + in-use %d != %d", free, inUse, l.PoolSize)
	}
	return nil
}

// FreeCount walks the free list given the current head index (held in the
// PP's FreeHeadReg at run time) and returns its length; it errors on cycles. A run
// of entries in never-written pages is counted arithmetically — pristine
// entry k links to k+1, the last to NullPtr — so the walk costs O(pool
// pages written), with exactly the result and the cycle bound of the
// entry-by-entry walk.
func (l Layout) FreeCount(mem *memsys.Store, head uint64) (int, error) {
	pool := uint64(l.PoolSize)
	n := uint64(0)
	for head != NullPtr {
		if n > pool {
			return int(n), fmt.Errorf("protocol: free list cycle")
		}
		if head >= pool {
			return int(n), fmt.Errorf("protocol: free list entry %d outside the %d-entry pool", head, pool)
		}
		w := l.poolWord(head)
		mw, ok := mem.NextMaterialized(w)
		if ok && mw == w {
			head = mem.Load(w) >> NextPos & (1<<NextW - 1)
			n++
			continue
		}
		// Entries [head, end) are pristine. The entry-by-entry walk would
		// test n, n+1, ..., n+(end-head)-1 against the bound on its way.
		end := pool
		if ok && mw < l.poolWord(pool) {
			end = mw - l.poolWord(0)
		}
		n += end - head
		if n-1 > pool {
			return int(pool) + 1, fmt.Errorf("protocol: free list cycle")
		}
		head = end
		if end == pool {
			head = NullPtr
		}
	}
	return int(n), nil
}

// poolWord returns the protocol-memory word index of pool entry idx.
func (l Layout) poolWord(idx uint64) uint64 { return uint64(l.PtrBase)/8 + idx }
