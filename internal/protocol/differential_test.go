package protocol

import (
	"maps"
	"testing"
	"testing/quick"

	"flashsim/internal/arch"
)

// refDir is a Go reference model of one line's directory state, mirroring
// the handler semantics. Under dynptr the sharer list is a multiset: the
// handlers do not deduplicate (duplicates self-balance, k entries -> k
// INVALs -> k IACKs). Under bitvec (set) it is a set, because presence bits
// cannot duplicate.
type refDir struct {
	dirty, pending, local bool
	owner                 arch.NodeID
	sharers               map[arch.NodeID]int
	acks                  int
	set                   bool
}

func newRefDir(set bool) *refDir { return &refDir{sharers: map[arch.NodeID]int{}, set: set} }

// apply mirrors the home-node handlers for one message; it returns false if
// the operation would have been NAKed (so the driver skips dependent
// follow-ups).
func (d *refDir) apply(t arch.MsgType, src arch.NodeID, self arch.NodeID) bool {
	switch t {
	case arch.MsgGET:
		if d.pending || (d.dirty && d.owner == src) {
			return false
		}
		if d.dirty {
			if d.owner == self {
				// Synchronous downgrade at home.
				d.dirty = false
				d.local = true
				d.note(src, self)
				return true
			}
			d.pending = true // forwarded; caller must resolve
			return true
		}
		d.note(src, self)
	case arch.MsgGETX:
		if d.pending || (d.dirty && d.owner == src) {
			return false
		}
		if d.dirty {
			if d.owner == self {
				// Synchronous flush at home: ownership moves directly.
				d.local = false
				d.owner = src
				return true
			}
			d.pending = true
			return true
		}
		n := 0
		for s, k := range d.sharers {
			if s != src {
				n += k
			}
		}
		d.sharers = map[arch.NodeID]int{}
		if d.local && src != self {
			d.local = false
		}
		if src == self {
			d.local = true
		}
		d.dirty = true
		d.owner = src
		d.acks = n
		d.pending = n > 0
	case arch.MsgWB:
		if d.dirty && d.owner == src {
			d.dirty = false
			if src == self {
				d.local = false
			}
			if d.acks == 0 {
				d.pending = false
			}
		}
	case arch.MsgRPL:
		if src == self {
			if !d.dirty {
				d.local = false
			}
		} else if d.sharers[src] > 0 {
			d.sharers[src]--
			if d.sharers[src] == 0 {
				delete(d.sharers, src)
			}
		}
	case arch.MsgSWB:
		if !(d.dirty && d.owner == src) {
			return false
		}
		d.dirty = false
		d.pending = false
		d.note(src, self)
	case arch.MsgXFER:
		if !(d.dirty && d.owner == src) {
			return false
		}
		d.pending = false
	case arch.MsgIACK:
		d.acks--
		if d.acks <= 0 {
			d.acks = 0
			d.pending = false
		}
	}
	return true
}

func (d *refDir) note(n, self arch.NodeID) {
	switch {
	case n == self:
		d.local = true
	case d.set:
		d.sharers[n] = 1
	default:
		d.sharers[n]++
	}
}

// expect returns the LOCAL flag and the sharers a decoded header should show
// for the model's state. Presence bits hold no LOCAL flag: the home's own
// copy is its bit, and a dirty line's owner keeps its bit set.
func (d *refDir) expect(self arch.NodeID) (local bool, sharers map[arch.NodeID]int) {
	if !d.set {
		return d.local, d.sharers
	}
	sharers = maps.Clone(d.sharers)
	if d.local {
		sharers[self] = 1
	}
	if d.dirty {
		sharers[d.owner] = 1
	}
	return false, sharers
}

// TestDifferentialRandomOps drives random home-side message sequences
// through the assembly handlers of each directory protocol and the
// reference model and compares the resulting directory state after every
// step.
func TestDifferentialRandomOps(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
		t.Run(proto.String(), func(t *testing.T) {
			if err := quick.Check(randomOps(t, proto), &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// randomOps returns the property TestDifferentialRandomOps checks for one
// protocol: an op sequence leaves handlers and model in the same state, and
// no request the model accepts is NAKed.
func randomOps(t *testing.T, proto arch.Protocol) func(ops []uint16) bool {
	const self = arch.NodeID(0)
	return func(ops []uint16) bool {
		r := newRig(t, proto, self)
		r.env.pcKind = 1
		ref := newRefDir(proto == arch.ProtoBitVector)
		pendingFwd := arch.NodeID(0)
		hasFwd := false
		fwdExclusive := false
		for _, op := range ops {
			src := arch.NodeID(op>>3) % 8
			kind := op & 7
			// Resolve an outstanding forward first half the time, so the
			// line doesn't stay pending forever.
			if hasFwd && op&1 == 0 {
				if fwdExclusive {
					r.deliver(arch.Msg{Type: arch.MsgXFER, Addr: testAddr, Src: pendingFwd, Req: src}, true)
					if ref.apply(arch.MsgXFER, pendingFwd, self) {
						ref.owner = src // XFER hands ownership to Req
					}
				} else {
					r.deliver(arch.Msg{Type: arch.MsgSWB, Addr: testAddr, Src: pendingFwd, Req: src}, true)
					if ref.apply(arch.MsgSWB, pendingFwd, self) {
						ref.note(src, self)
					}
				}
				hasFwd = false
			}
			var mt arch.MsgType
			switch kind {
			case 0, 1:
				mt = arch.MsgGET
			case 2:
				mt = arch.MsgGETX
			case 3:
				mt = arch.MsgWB
			case 4:
				mt = arch.MsgRPL
			default:
				continue
			}
			viaNet := src != self
			before := *ref
			okRef := ref.apply(mt, src, self)
			sends := r.deliver(arch.Msg{Type: mt, Addr: testAddr, Src: src, Req: src}, viaNet)
			// Track forwards so we can resolve them.
			for _, s := range sends {
				switch s.Type {
				case arch.MsgFwdGET:
					pendingFwd, hasFwd, fwdExclusive = s.Dst, true, false
				case arch.MsgFwdGETX:
					pendingFwd, hasFwd, fwdExclusive = s.Dst, true, true
				case arch.MsgNAK:
					if okRef && mt != arch.MsgGET {
						// The model accepted but the handlers NAKed:
						// divergence (GET of a dirty-local line downgrades
						// in both).
						t.Logf("divergence: %v from %d NAKed; ref before=%+v", mt, src, before)
						return false
					}
				}
			}
			// IACKs for a GETX with sharers: drain immediately (the real
			// machine's invalidated nodes each acknowledge).
			for ref.acks > 0 {
				r.deliver(arch.Msg{Type: arch.MsgIACK, Addr: testAddr, Src: 1}, true)
				ref.apply(arch.MsgIACK, 1, self)
			}
			if !r.compare(ref) {
				t.Logf("state divergence after %v from %d", mt, src)
				return false
			}
		}
		return true
	}
}

// compare checks the decoded handler state against the model.
func (r *handlerRig) compare(ref *refDir) bool {
	d := r.dir(testAddr)
	local, want := ref.expect(r.self)
	if d.Dirty != ref.dirty || d.Pending != ref.pending || d.Local != local || d.Acks != ref.acks {
		r.t.Logf("asm = %+v\nref = %+v", d, ref)
		return false
	}
	if d.Dirty && d.Owner != ref.owner {
		r.t.Logf("owner: asm %d ref %d", d.Owner, ref.owner)
		return false
	}
	got := map[arch.NodeID]int{}
	for _, s := range d.Sharers {
		got[s]++
	}
	if !maps.Equal(got, want) {
		r.t.Logf("sharers: asm %v ref %v", got, want)
		return false
	}
	return true
}
