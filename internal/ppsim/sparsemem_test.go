package ppsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
)

// memModel pairs a PP with the dense image its sparse protocol memory must
// be indistinguishable from.
type memModel struct {
	pp    *PP
	dense []uint64
}

// sparseRig builds PPs over one protocol layout whose memory size is not a
// whole number of 64 KiB regions, each shadowed by a dense reference image.
type sparseRig struct {
	t     *testing.T
	cfg   arch.Config
	lay   protocol.Layout
	words uint64
}

func newSparseRig(t *testing.T, proto arch.Protocol) *sparseRig {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 4
	cfg.MemBytesPerNode = 1 << 20
	cfg.Protocol = proto
	prog, err := protocol.Build(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &sparseRig{t: t, cfg: cfg, lay: prog.Layout, words: uint64(prog.Layout.MemBytes) / 8}
	if r.words%(64<<10/8) == 0 {
		t.Fatalf("protocol memory of %d words ends on a region boundary; the rig wants a partial last region", r.words)
	}
	return r
}

// denseInit is the dense InitMemory: the layout's pristine image filled in
// one call over the whole memory, then the globals.
func (r *sparseRig) denseInit(id arch.NodeID) []uint64 {
	d := make([]uint64, r.words)
	r.lay.FillPristine(0, d)
	d[protocol.GMyID/8] = uint64(id)
	d[protocol.GHomeBase/8] = uint64(r.cfg.NodeBase(id))
	d[protocol.GNNodes/8] = uint64(r.cfg.Nodes)
	d[protocol.GFreeHead/8] = 0
	return d
}

// pristine is protocol-memory word i before any handler writes it.
func (r *sparseRig) pristine(i uint64) uint64 {
	var w [1]uint64
	r.lay.FillPristine(i, w[:])
	return w[0]
}

func (r *sparseRig) newModel(id arch.NodeID) *memModel {
	pp := NewBackend(&ppisa.Program{}, int(r.lay.MemBytes), nil, nil, BackendInterp)
	r.lay.InitMemory(pp.Mem, id, r.cfg.NodeBase(id), r.cfg.Nodes)
	return &memModel{pp: pp, dense: r.denseInit(id)}
}

// check compares every word of every model against its dense image.
func (r *sparseRig) check(when string, ms []*memModel) {
	r.t.Helper()
	for k, m := range ms {
		for w := uint64(0); w < r.words; w++ {
			if got := m.pp.load(w * 8); got != m.dense[w] {
				r.t.Fatalf("%s: pp %d word %d = %#x, dense image has %#x", when, k, w, got, m.dense[w])
			}
		}
	}
}

// TestSparseMemoryModel drives seeded random loads, stores, captures,
// restores and resets through three PPs per protocol and requires each
// sparse protocol memory to read exactly like a dense image that started
// from the layout's pristine function. Addresses are biased towards page
// and region edges, the directory/pool boundary and the partial last
// region.
func TestSparseMemoryModel(t *testing.T) {
	for _, proto := range []arch.Protocol{arch.ProtoDynPtr, arch.ProtoBitVector} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", proto, seed), func(t *testing.T) {
				r := newSparseRig(t, proto)
				rng := rand.New(rand.NewSource(seed))
				ms := []*memModel{r.newModel(0), r.newModel(1), r.newModel(2)}
				r.check("after InitMemory", ms)

				const page, region = 4 << 10 / 8, 64 << 10 / 8
				// PtrBase is one past the end under bitvec, which has no pool.
				edges := []uint64{0, page - 1, page, region - 1, region, r.words - 1, r.words - 2,
					min(uint64(r.lay.PtrBase)/8, r.words-1), uint64(r.lay.PtrBase)/8 - 1, r.words / region * region}
				pick := func() uint64 {
					if rng.Intn(3) == 0 {
						return edges[rng.Intn(len(edges))]
					}
					return uint64(rng.Int63n(int64(r.words)))
				}
				type capture struct {
					st    PPState
					dense []uint64
				}
				var caps []capture
				for op := 0; op < 4000; op++ {
					m := ms[rng.Intn(len(ms))]
					switch k := rng.Intn(100); {
					case k < 45:
						w, v := pick(), rng.Uint64()
						m.pp.store(w*8, v)
						m.dense[w] = v
					case k < 85:
						w := pick()
						if got := m.pp.load(w * 8); got != m.dense[w] {
							t.Fatalf("op %d: load word %d = %#x, dense image has %#x", op, w, got, m.dense[w])
						}
					case k < 91:
						st, err := m.pp.CaptureState()
						if err != nil {
							t.Fatal(err)
						}
						caps = append(caps, capture{st, append([]uint64(nil), m.dense...)})
					case k < 97:
						if len(caps) > 0 {
							c := caps[rng.Intn(len(caps))]
							m.pp.RestoreState(c.st)
							copy(m.dense, c.dense)
						}
					default:
						id := arch.NodeID(rng.Intn(r.cfg.Nodes))
						m.pp.RestoreState(PPState{})
						r.lay.InitMemory(m.pp.Mem, id, r.cfg.NodeBase(id), r.cfg.Nodes)
						m.dense = r.denseInit(id)
					}
					if op%500 == 499 {
						r.check(fmt.Sprintf("after op %d", op), ms)
					}
				}
				r.check("final", ms)
			})
		}
	}
}

// TestSparseMemoryCOWIsolation pins copy-on-write isolation in both
// directions: donor writes after CaptureState reach neither the captured
// state nor a fork restored from it, and a fork's writes reach neither the
// donor nor a sibling fork.
func TestSparseMemoryCOWIsolation(t *testing.T) {
	r := newSparseRig(t, arch.ProtoDynPtr)
	donor := r.newModel(0)
	dir := uint64(r.lay.DirBase) + 8*100
	pool := uint64(r.lay.PtrBase) + 8*5
	donor.pp.store(dir, 0xD1)
	st, err := donor.pp.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	donor.pp.store(dir, 0xD2)  // page written before the capture
	donor.pp.store(pool, 0xD3) // page pristine at the capture
	forkA, forkB := r.newModel(0), r.newModel(0)
	forkA.pp.RestoreState(st)
	forkB.pp.RestoreState(st)
	for name, f := range map[string]*memModel{"fork A": forkA, "fork B": forkB} {
		if got := f.pp.load(dir); got != 0xD1 {
			t.Errorf("%s sees the donor's post-capture directory write: %#x", name, got)
		}
		if got, want := f.pp.load(pool), r.pristine(pool/8); got != want {
			t.Errorf("%s sees the donor's post-capture pool write: %#x, want pristine %#x", name, got, want)
		}
	}

	forkA.pp.store(dir, 0xA1)
	forkA.pp.store(pool, 0xA2)
	if got := donor.pp.load(dir); got != 0xD2 {
		t.Errorf("fork write reached the donor's directory: %#x", got)
	}
	if got := donor.pp.load(pool); got != 0xD3 {
		t.Errorf("fork write reached the donor's pool: %#x", got)
	}
	if got := forkB.pp.load(dir); got != 0xD1 {
		t.Errorf("fork write reached a sibling fork's directory: %#x", got)
	}
	if got, want := forkB.pp.load(pool), r.pristine(pool/8); got != want {
		t.Errorf("fork write reached a sibling fork's pool: %#x, want pristine %#x", got, want)
	}
	forkC := r.newModel(0)
	forkC.pp.RestoreState(st)
	if got := forkC.pp.load(dir); got != 0xD1 {
		t.Errorf("captured state mutated after the fact: directory word %#x", got)
	}
}

// TestSparseMemoryOutOfRange keeps the dense memory's bound: an access past
// the configured size panics naming the byte address, even where the last
// region physically extends beyond it.
func TestSparseMemoryOutOfRange(t *testing.T) {
	r := newSparseRig(t, arch.ProtoDynPtr)
	m := r.newModel(0)
	m.pp.store((r.words-1)*8, 1) // materialize the partial last region's page
	end := r.words * 8
	for name, access := range map[string]func(){
		"load":  func() { m.pp.load(end) },
		"store": func() { m.pp.store(end, 1) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				want := fmt.Sprintf("ppsim: protocol memory %s out of range: %#x", name, end)
				if !strings.Contains(msg, want) {
					t.Errorf("%s at %#x: panic %q, want %q", name, end, msg, want)
				}
			}()
			access()
		}()
	}
}
