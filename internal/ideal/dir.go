package ideal

import (
	"fmt"

	"flashsim/internal/arch"
	"flashsim/internal/protocol"
)

// The oracle directory records one packed entry per line of its node's
// memory, indexed by local line (Config.LocalLine), in pages of pageLines
// entries that are allocated on the first touch of one of their lines, as
// FLASH keeps its directory headers in protocol-memory pages. A line whose
// page was never touched is clean with no sharers, the zero entry. Sharers
// are cells of one pool per controller, linked in the order they were
// recorded (getx sends its invalidations in that order); a cell a list
// drops goes on the pool's free list and is reused before the pool grows.

const (
	pageShift = 9
	pageLines = 1 << pageShift

	// An entry is one word: three flags, then the owner, the count of
	// invalidation acks outstanding, and the pool index of the first sharer
	// cell (0 for an empty list).
	ownerPos, ownerW = 3, 16
	acksPos, acksW   = ownerPos + ownerW, 16
	headPos, headW   = acksPos + acksW, 64 - acksPos - acksW

	// MaxNodes is the largest ideal machine: an entry holds an owner and
	// an ack count below it.
	MaxNodes = 1 << ownerW

	maxCells = 1 << headW
)

// entry is one line's packed directory entry.
type entry uint64

// The entry's flags.
const (
	entDirty entry = 1 << iota
	entPending
	entLocal
)

func (e entry) has(f entry) bool { return e&f != 0 }

func (e *entry) set(f entry, on bool) {
	if on {
		*e |= f
	} else {
		*e &^= f
	}
}

func (e entry) field(pos, w uint) uint32 { return uint32(uint64(e) >> pos & (1<<w - 1)) }

func (e *entry) setField(pos, w uint, v uint32) {
	*e = *e&^entry((1<<w-1)<<pos) | entry(uint64(v)<<pos)
}

func (e entry) owner() arch.NodeID         { return arch.NodeID(e.field(ownerPos, ownerW)) }
func (e *entry) setOwner(n arch.NodeID)    { e.setField(ownerPos, ownerW, uint32(n)) }
func (e entry) acks() int                  { return int(e.field(acksPos, acksW)) }
func (e *entry) setAcks(n int)             { e.setField(acksPos, acksW, uint32(n)) }
func (e entry) head() uint32               { return e.field(headPos, headW) }
func (e *entry) setHead(i uint32)          { e.setField(headPos, headW, i) }
func (e entry) dirtyAt(n arch.NodeID) bool { return e.has(entDirty) && e.owner() == n }

// cell is one sharer of a line: a node and the pool index of the next
// cell of its list, 0 at the end.
type cell struct {
	node arch.NodeID
	next uint32
}

// directory is one home's oracle directory; the zero directory records
// nothing.
type directory struct {
	pages []*[pageLines]entry // by local line >> pageShift; nil until touched
	cells []cell              // the sharer pool; cells[0] is never used
	free  uint32              // first cell of the free list, 0 if empty
}

// at returns local line l's live entry, allocating its page on first touch.
func (d *directory) at(l uint64) *entry {
	p := l >> pageShift
	if p >= uint64(len(d.pages)) {
		d.pages = append(d.pages, make([]*[pageLines]entry, p+1-uint64(len(d.pages)))...)
	}
	pg := d.pages[p]
	if pg == nil {
		pg = new([pageLines]entry)
		d.pages[p] = pg
	}
	return &pg[l&(pageLines-1)]
}

// peek returns local line l's entry without touching its page.
func (d *directory) peek(l uint64) entry {
	if p := l >> pageShift; p < uint64(len(d.pages)) && d.pages[p] != nil {
		return d.pages[p][l&(pageLines-1)]
	}
	return 0
}

// addSharer appends n to e's sharer list unless it is already there.
func (d *directory) addSharer(e *entry, n arch.NodeID) {
	last := uint32(0)
	for i := e.head(); i != 0; i = d.cells[i].next {
		if d.cells[i].node == n {
			return
		}
		last = i
	}
	i := d.free
	if i != 0 {
		d.free = d.cells[i].next
	} else {
		if len(d.cells) == 0 {
			d.cells = append(d.cells, cell{})
		}
		if len(d.cells) == maxCells {
			panic(fmt.Sprintf("ideal: sharer pool full at %d cells", maxCells-1))
		}
		i = uint32(len(d.cells))
		d.cells = append(d.cells, cell{})
	}
	d.cells[i] = cell{node: n}
	if last == 0 {
		e.setHead(i)
	} else {
		d.cells[last].next = i
	}
}

// removeSharer unlinks n from e's sharer list, if it is there.
func (d *directory) removeSharer(e *entry, n arch.NodeID) {
	prev := uint32(0)
	for i := e.head(); i != 0; prev, i = i, d.cells[i].next {
		if d.cells[i].node != n {
			continue
		}
		if prev == 0 {
			e.setHead(d.cells[i].next)
		} else {
			d.cells[prev].next = d.cells[i].next
		}
		d.cells[i].next = d.free
		d.free = i
		return
	}
}

// clearSharers empties e's sharer list onto the free list.
func (d *directory) clearSharers(e *entry) {
	first := e.head()
	if first == 0 {
		return
	}
	last := first
	for d.cells[last].next != 0 {
		last = d.cells[last].next
	}
	d.cells[last].next = d.free
	d.free = first
	e.setHead(0)
}

// decode writes e into out in protocol.DirInfo form, reusing out.Sharers.
func (d *directory) decode(e entry, out *protocol.DirInfo) {
	sharers := out.Sharers[:0]
	for i := e.head(); i != 0; i = d.cells[i].next {
		sharers = append(sharers, d.cells[i].node)
	}
	*out = protocol.DirInfo{
		Dirty: e.has(entDirty), Pending: e.has(entPending), Local: e.has(entLocal),
		Owner: e.owner(), Acks: e.acks(), Sharers: sharers,
	}
}

// DecodeInto writes the oracle directory entry of local line l homed here
// into out, reusing out.Sharers' storage as protocol.Layout.DecodeInto
// does; a line nothing recorded decodes as the zero entry. It is the
// coherence audit's view of the directory.
func (c *Controller) DecodeInto(l uint64, out *protocol.DirInfo) {
	c.dir.decode(c.dir.peek(l), out)
}

// NextRecorded returns the smallest local line >= l in a touched
// directory page, and false if there is none. Lines it skips hold the zero
// entry: it is the coherence audit's directory walk.
func (c *Controller) NextRecorded(l uint64) (uint64, bool) {
	for p := l >> pageShift; p < uint64(len(c.dir.pages)); p++ {
		if c.dir.pages[p] != nil {
			return max(l, p<<pageShift), true
		}
	}
	return 0, false
}

// SetEntry overwrites the entry of local line l homed here with in,
// sharers in in.Sharers' order (in.Overflow has no place in the oracle).
// The coherence audit's mutation tests corrupt entries through it.
func (c *Controller) SetEntry(l uint64, in protocol.DirInfo) {
	e := c.dir.at(l)
	c.dir.clearSharers(e)
	*e = 0
	e.set(entDirty, in.Dirty)
	e.set(entPending, in.Pending)
	e.set(entLocal, in.Local)
	e.setOwner(in.Owner)
	e.setAcks(in.Acks)
	for _, n := range in.Sharers {
		c.dir.addSharer(e, n)
	}
}
