package cpu

import (
	"testing"
	"unsafe"

	"flashsim/internal/arch"
	"flashsim/internal/memsys"
	"flashsim/internal/sim"
)

// echoCtl replies to every GET/GETX after a fixed latency, optionally
// NAKing the first k requests.
type echoCtl struct {
	eng     *sim.Engine
	cpu     *CPU
	latency sim.Cycle
	nakRem  int
	reqs    []arch.Msg
	ats     []sim.Cycle // bus-crossing time of each request
	aux     uint32
}

func (c *echoCtl) FromProc(m arch.Msg, at sim.Cycle) {
	c.reqs = append(c.reqs, m)
	c.ats = append(c.ats, at)
	switch m.Type {
	case arch.MsgGET, arch.MsgGETX:
		reply := arch.Msg{Type: arch.MsgPUT, Addr: m.Addr, Aux: c.aux, DB: 0}
		if m.Type == arch.MsgGETX {
			reply.Type = arch.MsgPUTX
		}
		if c.nakRem > 0 {
			c.nakRem--
			reply = arch.Msg{Type: arch.MsgNAK, Addr: m.Addr, DB: -1}
		}
		c.eng.At(at+c.latency, func() { c.cpu.Deliver(reply, c.eng.Now()) })
	}
}

func (c *echoCtl) FromProcFF(m arch.Msg, at sim.Cycle) { c.FromProc(m, at) }

type scripted struct {
	refs []Ref
	i    int
}

// NextBatch delivers one reference per batch, exercising the CPU's refill
// loop on every reference.
func (s *scripted) NextBatch() ([]Ref, bool) {
	if s.i >= len(s.refs) {
		return nil, false
	}
	b := s.refs[s.i : s.i+1]
	s.i++
	return b, true
}
func (s *scripted) ReadDone() {}

func testCPU(t *testing.T, refs []Ref, nak int) (*CPU, *echoCtl, *sim.Engine) {
	t.Helper()
	cfg := arch.DefaultConfig()
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	eng := sim.NewEngine()
	ctl := &echoCtl{eng: eng, latency: 50, nakRem: nak}
	mem := memsys.NewStore(cfg.MemBytesPerNode / 4)
	c := New(0, eng, &cfg, ctl, memsys.NewView(mem))
	ctl.cpu = c
	c.SetSource(&scripted{refs: refs})
	c.Start()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return c, ctl, eng
}

// TestRefSize pins a Ref at 32 bytes: every workload thread's batch is an
// array of them, and a field added or reordered so that the struct pads
// grows every batch.
func TestRefSize(t *testing.T) {
	if got := unsafe.Sizeof(Ref{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(cpu.Ref{}) = %d, want 32", got)
	}
}

func TestBlockingRead(t *testing.T) {
	var out uint64
	c, ctl, _ := testCPU(t, []Ref{
		{Kind: arch.RefRead, Addr: 0x1000, Out: &out},
		{Kind: arch.RefRead, Addr: 0x1000, Busy: 4}, // second read hits
	}, 0)
	if len(ctl.reqs) != 1 {
		t.Fatalf("requests = %d, want 1 (second read must hit)", len(ctl.reqs))
	}
	if c.Stats.ReadMisses != 1 || c.Stats.Reads != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
	if c.Stats.ReadStall < 50 {
		t.Fatalf("read stall %d, want >= reply latency", c.Stats.ReadStall)
	}
}

func TestNonblockingWriteAndMerge(t *testing.T) {
	c, ctl, _ := testCPU(t, []Ref{
		{Kind: arch.RefWrite, Addr: 0x2000, WVal: 1},
		{Kind: arch.RefWrite, Addr: 0x2008, WVal: 2, Busy: 4}, // merges into same line
		{Kind: arch.RefWrite, Addr: 0x2010, WVal: 3, Busy: 4}, // merges too
	}, 0)
	if len(ctl.reqs) != 1 {
		t.Fatalf("requests = %d, want 1 (writes merge)", len(ctl.reqs))
	}
	if ctl.reqs[0].Type != arch.MsgGETX {
		t.Fatalf("request = %v, want GETX", ctl.reqs[0].Type)
	}
	if c.Stats.WriteStall != 0 {
		t.Fatalf("write stall = %d, want 0 (non-blocking)", c.Stats.WriteStall)
	}
	// Values applied in order.
	if c.mem.Load(0x2008/8) != 2 || c.mem.Load(0x2010/8) != 3 {
		t.Fatal("merged stores lost")
	}
}

func TestWriteIndexConflictStalls(t *testing.T) {
	// Two writes to the same cache set, different tags: the second stalls
	// until the first completes (the paper's rule).
	cfg := arch.DefaultConfig()
	setSpan := uint64(cfg.CacheSize / cfg.CacheWays) // bytes per way
	c, ctl, _ := testCPU(t, []Ref{
		{Kind: arch.RefWrite, Addr: 0x3000, WVal: 1},
		{Kind: arch.RefWrite, Addr: arch.Addr(0x3000 + setSpan), WVal: 2, Busy: 4},
	}, 0)
	if len(ctl.reqs) != 2 {
		t.Fatalf("requests = %d, want 2", len(ctl.reqs))
	}
	if c.Stats.WriteStall == 0 {
		t.Fatal("conflicting write did not stall")
	}
}

func TestNakRetry(t *testing.T) {
	var out uint64
	c, ctl, _ := testCPU(t, []Ref{
		{Kind: arch.RefRead, Addr: 0x4000, Out: &out},
	}, 2)
	if len(ctl.reqs) != 3 {
		t.Fatalf("requests = %d, want 3 (two NAK retries)", len(ctl.reqs))
	}
	if c.Stats.Naks != 2 {
		t.Fatalf("naks = %d, want 2", c.Stats.Naks)
	}
}

func TestMissClassification(t *testing.T) {
	cases := []struct {
		addr  arch.Addr
		aux   uint32
		class arch.MissClass
	}{
		{0x1000, 0, arch.MissLocalClean}, // home 0 (= self)
		{0x1080, 1, arch.MissLocalDirty},
		{1<<20 + 0x1000, 0, arch.MissRemoteClean}, // home 1
		{1<<20 + 0x1080, 1, arch.MissRemoteDirtyHome},
		{1<<20 + 0x1100, 3, arch.MissRemoteDirty3rd},
	}
	for _, cse := range cases {
		cfg := arch.DefaultConfig()
		cfg.Nodes = 2
		cfg.MemBytesPerNode = 1 << 20
		eng := sim.NewEngine()
		ctl := &echoCtl{eng: eng, latency: 30, aux: cse.aux}
		c := New(0, eng, &cfg, ctl, memsys.NewView(memsys.NewStore(1<<18)))
		ctl.cpu = c
		var out uint64
		c.SetSource(&scripted{refs: []Ref{{Kind: arch.RefRead, Addr: cse.addr, Out: &out}}})
		c.Start()
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Stats.MissClass[cse.class] != 1 {
			t.Fatalf("aux=%d addr=%#x: census %v, want class %v", cse.aux, cse.addr, c.Stats.MissClass, cse.class)
		}
	}
}

func TestInterventionRetrievesDirty(t *testing.T) {
	c, _, eng := testCPU(t, []Ref{
		{Kind: arch.RefWrite, Addr: 0x5000, WVal: 7},
	}, 0)
	// The line is now Modified; a downgrade intervention retrieves it.
	var resp arch.MsgType
	var first sim.Cycle
	c.Intervene(arch.MsgPIDowngr, 0x5000, eng.Now(), arch.Msg{}, func(_ arch.Msg, r arch.MsgType, f sim.Cycle) {
		resp, first = r, f
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if resp != arch.MsgPCData {
		t.Fatalf("resp = %v, want PCData", resp)
	}
	if first == 0 {
		t.Fatal("no firstData time")
	}
	if c.Cache.Lookup(arch.Addr(0x5000).Line()) != Shared {
		t.Fatal("downgrade did not leave line Shared")
	}
	// A clean intervention now responds PCClean.
	c.Intervene(arch.MsgPIFlush, 0x5000, eng.Now(), arch.Msg{}, func(_ arch.Msg, r arch.MsgType, f sim.Cycle) { resp = r })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if resp != arch.MsgPCClean {
		t.Fatalf("resp = %v, want PCClean", resp)
	}
	if c.Cache.Lookup(arch.Addr(0x5000).Line()) != Invalid {
		t.Fatal("flush did not invalidate")
	}
}

func TestBusyAccounting(t *testing.T) {
	c, _, _ := testCPU(t, []Ref{
		{Kind: arch.RefWrite, Addr: 0x6000, Busy: 400},
		{Kind: arch.RefWrite, Addr: 0x6000, Busy: 401, Sync: true},
	}, 0)
	// 400 instructions at 4/cycle = 100 cycles busy (+1 per ref issue).
	if c.Stats.Busy < 100 || c.Stats.Busy > 102 {
		t.Fatalf("busy = %d, want ~100", c.Stats.Busy)
	}
	if c.Stats.SyncStall < 100 {
		t.Fatalf("sync busy = %d, want ~100", c.Stats.SyncStall)
	}
}
