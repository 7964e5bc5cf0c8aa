package cpu

import (
	"reflect"
	"strings"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/memsys"
	"flashsim/internal/sim"
)

// hitThread is a workload thread reduced to its handshake with the
// processor: the hit/batch/flush protocol of workload.Ctx and the prepulled
// batch of its RefSource, run on the caller's stack in place of a
// coroutine. Being resumed means walking prog until the next yield.
type hitThread struct {
	c     *CPU
	prog  []Ref
	pos   int
	batch []Ref

	pending            []Ref
	pendingOK, prepull bool

	// Outcomes, for asserting the path taken: references retired by Hit on
	// the thread, and references Hit refused while the loop was live.
	hit, refused int
}

func (t *hitThread) resume() ([]Ref, bool) {
	t.batch = t.batch[:0]
	for t.pos < len(t.prog) {
		r := t.prog[t.pos]
		t.pos++
		if len(t.batch) == 0 {
			if v, ok := t.c.Hit(r.Kind, r.RMW, r.Addr, r.WVal, r.Busy, r.Sync); ok {
				t.hit++
				if r.Out != nil {
					*r.Out = v
				}
				continue
			}
			if t.c.live {
				t.refused++
			}
		}
		t.batch = append(t.batch, r)
		if r.Kind != arch.RefWrite {
			return t.batch, true
		}
	}
	return t.batch, len(t.batch) > 0
}

func (t *hitThread) NextBatch() ([]Ref, bool) {
	if t.prepull {
		t.prepull = false
		return t.pending, t.pendingOK
	}
	return t.resume()
}

func (t *hitThread) ReadDone() {
	t.pending, t.pendingOK = t.resume()
	t.prepull = true
}

// syncCtl completes fast-forward requests synchronously, the way MAGIC's
// functional chains do, and detailed ones like echoCtl.
type syncCtl struct{ echoCtl }

func (c *syncCtl) FromProcFF(m arch.Msg, at sim.Cycle) {
	c.reqs = append(c.reqs, m)
	c.ats = append(c.ats, at)
	switch m.Type {
	case arch.MsgGET:
		c.cpu.DeliverFF(arch.Msg{Type: arch.MsgPUT, Addr: m.Addr}, at+c.latency)
	case arch.MsgGETX:
		c.cpu.DeliverFF(arch.Msg{Type: arch.MsgPUTX, Addr: m.Addr}, at+c.latency)
	}
}

type threadRun struct {
	stats Stats
	reqs  []arch.Msg
	ats   []sim.Cycle
	end   sim.Cycle
	outs  []uint64
	mem   []uint64
}

type threadCase struct {
	name   string
	prog   func(out []uint64) []Ref
	mshrs  int
	sample arch.SampleSpec
	// plant, when set, runs before Start (to place state no reference
	// stream can produce).
	plant func(c *CPU, eng *sim.Engine)
	// check, when set, asserts the case's outcome on the threaded run (the
	// loop run must equal it).
	check func(t *testing.T, r threadRun)

	hit, refused int
}

// run executes the case's program, through a hitThread when threaded
// (returned for its outcome counts) and through the scripted source otherwise.
func (tc *threadCase) run(t *testing.T, threaded bool) (threadRun, *hitThread) {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	cfg.Sample = tc.sample
	if tc.mshrs != 0 {
		cfg.MSHRs = tc.mshrs
	}
	eng := sim.NewEngine()
	ctl := &syncCtl{echoCtl{eng: eng, latency: 50}}
	store := memsys.NewStore(cfg.MemBytesPerNode / 4)
	c := New(0, eng, &cfg, ctl, memsys.NewView(store))
	ctl.cpu = c
	r := threadRun{outs: make([]uint64, 8)}
	prog := tc.prog(r.outs)
	var th *hitThread
	if threaded {
		th = &hitThread{c: c, prog: prog}
		c.SetSource(th)
	} else {
		c.SetSource(&scripted{refs: prog})
	}
	if tc.plant != nil {
		tc.plant(c, eng)
	}
	c.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !c.Stats.Finished {
		t.Fatalf("processor never finished: %s", c.DebugState())
	}
	c.mem.Flush()
	for _, ref := range prog {
		r.mem = append(r.mem, store.Load(uint64(ref.Addr)/8))
	}
	r.stats, r.reqs, r.ats, r.end = c.Stats, ctl.reqs, ctl.ats, eng.Now()
	return r, th
}

// TestDirectMatchesLoop drives the same reference program through a thread
// that retires hits on its own stack (Hit) whenever the run loop is live and
// batches everything else, and through a scripted source that never can,
// and requires the processor to be unable to tell: identical stats,
// identical requests at identical bus times, identical data. Each case opens
// with a read miss and a read hit of line A, which leave A Shared — the hit
// is what makes the loop live — and then aims one edge of the thread/loop
// boundary; the outcome counts pin that the edge was reached.
func TestDirectMatchesLoop(t *testing.T) {
	const (
		A = arch.Addr(0x1000)
		B = arch.Addr(0x2000)
		C = A + arch.LineSize
	)
	setSpan := arch.Addr(arch.DefaultConfig().CacheSize / arch.DefaultConfig().CacheWays)
	live := func(out []uint64, rest ...Ref) []Ref {
		return append([]Ref{
			{Kind: arch.RefRead, Addr: A, Out: &out[0]},
			{Kind: arch.RefRead, Addr: A, Out: &out[1]},
		}, rest...)
	}
	cases := []threadCase{
		{
			// Hit refuses the first write miss, so the rest ride its batch.
			// Two write misses fill both MSHRs; the third blocks the loop
			// until one frees, and being a write it retires inside the
			// loop's retry with no ReadDone.
			name: "structural block, all MSHRs busy", mshrs: 2,
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: B, WVal: 1, Busy: 1},
					Ref{Kind: arch.RefWrite, Addr: B + 0x80, WVal: 2, Busy: 1},
					Ref{Kind: arch.RefWrite, Addr: B + 0x100, WVal: 3, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B + 0x100, Out: &out[2], Busy: 1})
			},
			refused: 1,
		},
		{
			name: "structural block, set conflict",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: B, WVal: 1, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B + setSpan, Out: &out[2], Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B, Out: &out[3], Busy: 1})
			},
			refused: 1,
		},
		{
			// Reads block, so no reference stream leaves a read miss
			// outstanding behind a running processor; the entry is planted.
			// Hit refuses the write (its line has an MSHR); on the loop it
			// waits for the fill, then upgrades the Shared line.
			name: "write behind an outstanding read miss",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: B, WVal: 7, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B, Out: &out[2], Busy: 1})
			},
			plant: func(c *CPU, eng *sim.Engine) {
				// A write ref: the fill completes no reference of its own,
				// so the blocked write retries rather than being consumed.
				c.mshrs[c.allocMSHR()] = mshrEntry{valid: true, line: B.Line(), kind: arch.MsgGET, ref: Ref{Kind: arch.RefWrite}}
				eng.At(400, func() { c.Deliver(arch.Msg{Type: arch.MsgPUT, Addr: B}, eng.Now()) })
			},
			check: func(t *testing.T, r threadRun) {
				if r.outs[2] != 7 {
					t.Errorf("read B = %d after the write of 7", r.outs[2])
				}
				upgraded := false
				for _, m := range r.reqs {
					upgraded = upgraded || m.Type == arch.MsgGETX && m.Addr.Line() == B.Line()
				}
				if !upgraded {
					t.Errorf("no GETX for B among %v", r.reqs)
				}
			},
			refused: 1,
		},
		{
			// The read waits on the write's GETX and is resumed unconsumed:
			// the loop retries it, it hits, and the thread goes live again
			// and retires the write to the now Modified line itself.
			name: "read behind an outstanding GETX",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: B, WVal: 9, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B, Out: &out[2], Busy: 1},
					Ref{Kind: arch.RefWrite, Addr: B + 8, WVal: 10, Busy: 1})
			},
			hit: 1, refused: 1,
		},
		{
			// 64 instructions are the whole 16-cycle slice: the upgrade
			// retires on the loop at vt == limit, and the test between
			// references must end the slice before the one behind it.
			name: "reference lands exactly on the limit",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: A + 8, WVal: 1, Busy: 64},
					Ref{Kind: arch.RefWrite, Addr: A + 16, WVal: 2, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: A + 16, Out: &out[2], Busy: 1})
			},
			refused: 1,
		},
		{
			name: "reference lands one cycle short of the limit",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: A + 8, WVal: 1, Busy: 60},
					Ref{Kind: arch.RefWrite, Addr: A + 16, WVal: 2, Busy: 4},
					Ref{Kind: arch.RefRead, Addr: A + 16, Out: &out[2], Busy: 1})
			},
			refused: 1,
		},
		{
			name: "RMW hit",
			prog: func(out []uint64) []Ref {
				return []Ref{
					{Kind: arch.RefWrite, Addr: A, WVal: 40},
					{Kind: arch.RefRead, Addr: A, Out: &out[0]}, // waits for the GETX
					{Kind: arch.RefRead, Addr: A, Out: &out[1], Busy: 1},
					{Kind: arch.RefRMW, RMW: RMWAdd, Addr: A, WVal: 2, Out: &out[2], Busy: 1},
					{Kind: arch.RefRMW, RMW: RMWSwap, Addr: A, WVal: 5, Out: &out[3], Busy: 1},
					{Kind: arch.RefRead, Addr: A, Out: &out[4], Busy: 1},
				}
			},
			hit: 4,
		},
		{
			name: "thread returns while live",
			prog: func(out []uint64) []Ref {
				return live(out, Ref{Kind: arch.RefWrite, Addr: A + 8, WVal: 1, Busy: 8})
			},
			refused: 1,
		},
		{
			// Once the write's GETX fills, A is Modified: every kind hits on
			// the thread's stack.
			name: "thread-side hits: read, sync read, write on M, RMW",
			prog: func(out []uint64) []Ref {
				return []Ref{
					{Kind: arch.RefWrite, Addr: A, WVal: 40},
					{Kind: arch.RefRead, Addr: A, Out: &out[0]}, // waits for the GETX
					{Kind: arch.RefRead, Addr: A, Out: &out[1], Busy: 3},
					{Kind: arch.RefRead, Addr: A + 8, Out: &out[2], Busy: 5, Sync: true},
					{Kind: arch.RefWrite, Addr: A + 8, WVal: 41, Busy: 2},
					{Kind: arch.RefWrite, Addr: A + 16, WVal: 42, Busy: 1, Sync: true},
					{Kind: arch.RefRMW, RMW: RMWSwap, Addr: A + 8, WVal: 43, Out: &out[3], Busy: 7, Sync: true},
					{Kind: arch.RefRead, Addr: A + 8, Out: &out[4], Busy: 1},
				}
			},
			hit: 6,
		},
		{
			// A is Shared: the write is no hit but an upgrade miss, and Hit
			// leaves it to the loop. The read behind it waits for the GETX.
			name: "write to a Shared line upgrades",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: A + 8, WVal: 1, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: A + 8, Out: &out[2], Busy: 1})
			},
			refused: 1,
		},
		{
			// 60 instructions leave one cycle of the slice; the next hit
			// retires on that last cycle, and the reference behind it must
			// batch.
			name: "hit on the slice's last cycle",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefRead, Addr: A + 8, Out: &out[2], Busy: 60},
					Ref{Kind: arch.RefRead, Addr: A + 16, Out: &out[3], Busy: 4},
					Ref{Kind: arch.RefRead, Addr: A + 24, Out: &out[4], Busy: 1})
			},
			hit: 2, refused: 1,
		},
		{
			// The loop issues B's GETX, then hits A+8 and goes live with
			// the miss still outstanding: Hit takes the read of A+16 (its
			// line has no MSHR) and refuses the read of B+8 (its line has).
			name: "hit with a miss outstanding",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefWrite, Addr: B, WVal: 1, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: A + 8, Out: &out[2], Busy: 1},
					Ref{Kind: arch.RefRead, Addr: A + 16, Out: &out[3], Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B + 8, Out: &out[4], Busy: 1})
			},
			hit: 1, refused: 2,
		},
		{
			// The loop issues A's upgrade, then hits C and goes live with it
			// outstanding: A is still Shared, so a read of it would hit the
			// cache, but Hit must refuse it — on the loop it waits for the
			// upgrade's fill.
			name: "read of a line with its upgrade outstanding",
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefRead, Addr: C, Out: &out[2], Busy: 1},
					Ref{Kind: arch.RefWrite, Addr: A + 8, WVal: 1, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: C + 8, Out: &out[3], Busy: 1},
					Ref{Kind: arch.RefRead, Addr: A + 16, Out: &out[4], Busy: 1})
			},
			refused: 2,
		},
		{
			// Fast-forward phase: the read's miss fills inside its own
			// issue() on the loop's stack, so deliver releases the thread
			// from inside tryRef and the clock must catch up to the fill.
			name: "sampled: miss fills synchronously inside a direct read",
			// Detailed for the first 40 cycles (the opening miss issues in
			// them), functional ever after.
			sample: arch.SampleSpec{Detail: 1, Stride: 1 << 40, Warmup: 40},
			prog: func(out []uint64) []Ref {
				return live(out,
					Ref{Kind: arch.RefRead, Addr: B, Out: &out[2], Busy: 1},
					Ref{Kind: arch.RefRMW, RMW: RMWAdd, Addr: B + 0x80, WVal: 3, Out: &out[3], Busy: 1},
					Ref{Kind: arch.RefWrite, Addr: B + 0x100, WVal: 4, Busy: 1},
					Ref{Kind: arch.RefRead, Addr: B + 0x100, Out: &out[4], Busy: 1})
			},
			refused: 1,
		},
		{
			// step notes every reference for the sampling estimator, and so
			// does Hit: under sampling a hit still retires on the thread.
			name:   "sampled: hits take the general path",
			sample: arch.SampleSpec{Detail: 1, Stride: 1 << 40, Warmup: 40},
			prog: func(out []uint64) []Ref {
				return live(out, Ref{Kind: arch.RefRead, Addr: A + 8, Out: &out[2], Busy: 1})
			},
			hit: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := tc.run(t, false)
			got, th := tc.run(t, true)
			if th.hit != tc.hit || th.refused != tc.refused {
				t.Errorf("outcomes: %d hits, %d refused; want %d, %d", th.hit, th.refused, tc.hit, tc.refused)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("threaded run diverged from the loop:\n got %+v\nwant %+v", got, want)
			}
			if tc.check != nil {
				tc.check(t, got)
			}
		})
	}
}

// TestDirectRefusedOffTheLoop pins the two gates that keep Hit exact: it
// runs only while the loop is live, and never under an armed snapshot
// pause.
func TestDirectRefusedOffTheLoop(t *testing.T) {
	var out [2]uint64
	prog := []Ref{
		{Kind: arch.RefRead, Addr: 0x1000, Out: &out[0]},
		{Kind: arch.RefRead, Addr: 0x1000, Out: &out[1]},
		{Kind: arch.RefWrite, Addr: 0x1008, WVal: 1, Busy: 1},
	}
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	eng := sim.NewEngine()
	ctl := &echoCtl{eng: eng, latency: 50}
	c := New(0, eng, &cfg, ctl, memsys.NewView(memsys.NewStore(cfg.MemBytesPerNode/4)))
	ctl.cpu = c
	th := &hitThread{c: c, prog: prog}
	c.SetSource(th)
	c.Cache.Fill(arch.Addr(0x1000).Line(), Modified)
	if _, ok := c.Hit(arch.RefWrite, 0, 0x1008, 1, 1, false); ok {
		t.Fatal("Hit executed a reference with no run loop on the stack")
	}
	c.Cache.RestoreState(CacheState{})
	c.PauseAfter(1 << 30)
	c.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if th.hit != 0 || c.Stats.Refs != 3 {
		t.Fatalf("pause armed: %d hits of %d, want 0 of 3", th.hit, c.Stats.Refs)
	}
	for _, f := range []string{"vt=", "limit=", "live=false"} {
		if s := c.DebugState(); !strings.Contains(s, f) {
			t.Fatalf("DebugState %q lacks %q", s, f)
		}
	}
}

// TestHitDoesNotAllocate pins the thread-side hit's steady state at zero
// allocations: a read hit, and a write hit whose value the view buffers
// until a window boundary flushes it.
func TestHitDoesNotAllocate(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	eng := sim.NewEngine()
	c := New(0, eng, &cfg, &echoCtl{eng: eng, latency: 50}, memsys.NewView(memsys.NewStore(cfg.MemBytesPerNode/4)))
	const a = arch.Addr(0x1000)
	c.Cache.Fill(a.Line(), Modified)
	c.live, c.limit = true, 1<<40 // as inside the loop's hitDone
	var v uint64
	if n := testing.AllocsPerRun(100, func() {
		var ok bool
		if v, ok = c.Hit(arch.RefRead, 0, a, 0, 1, false); !ok {
			t.Fatal("read of a Modified line is not a hit")
		}
	}); n != 0 {
		t.Errorf("read hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Hit(arch.RefWrite, 0, a+8, v+1, 1, false); !ok {
			t.Fatal("write to a Modified line is not a hit")
		}
		c.mem.Flush()
	}); n != 0 {
		t.Errorf("write hit: %v allocs, want 0", n)
	}
	if c.Stats.Refs != 202 || c.Stats.Reads != 101 || c.Stats.Writes != 101 {
		t.Errorf("stats %+v: want 202 references, 101 reads, 101 writes", c.Stats)
	}
}

// TestDebugStateNamesEveryField pins the hang dump to the in-flight record:
// DebugState prints every flight field as name=value, so a field added to
// the record fails here until the dump shows it.
func TestDebugStateNamesEveryField(t *testing.T) {
	cfg := arch.DefaultConfig()
	c := New(0, sim.NewEngine(), &cfg, nil, memsys.NewView(memsys.NewStore(1<<10)))
	c.mshrs[c.allocMSHR()] = mshrEntry{valid: true, line: 0x40, kind: arch.MsgGETX}
	s := " " + c.DebugState()
	for _, f := range reflect.VisibleFields(reflect.TypeOf(flight{})) {
		if !strings.Contains(s, " "+f.Name+"=") {
			t.Errorf("DebugState lacks %s=: %s", f.Name, s)
		}
	}
	if !strings.Contains(s, "mshrs=[0={line=0x40 kind=GETX") {
		t.Errorf("DebugState does not list the valid MSHR: %s", s)
	}
}
