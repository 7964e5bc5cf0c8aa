package workload

import (
	"reflect"
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/core"
	"flashsim/internal/cpu"
)

// refOps is the reference interface a thread body issues through.
type refOps interface {
	read(a arch.Addr, sync bool) uint64
	write(a arch.Addr, v uint64, sync bool)
	rmw(op cpu.RMWOp, a arch.Addr, v uint64, sync bool) uint64
}

// publicOps issues through the operations applications call, which retire
// a hit on the thread's stack (cpu.Hit) whenever they can.
type publicOps struct{ c *Ctx }

func (p publicOps) read(a arch.Addr, sync bool) uint64 {
	if sync {
		return p.c.readSync(a)
	}
	return p.c.ReadU(a)
}

func (p publicOps) write(a arch.Addr, v uint64, sync bool) {
	if sync {
		p.c.writeSync(a, v)
		return
	}
	p.c.WriteU(a, v)
}

func (p publicOps) rmw(op cpu.RMWOp, a arch.Addr, v uint64, sync bool) uint64 {
	switch {
	case op == cpu.RMWSwap:
		return p.c.Swap(a, v)
	case sync:
		return p.c.FetchAdd(a, v)
	}
	return p.c.FetchAddData(a, v)
}

// refOnlyOps builds every reference as a cpu.Ref and hands it to Ctx.wait
// or Ctx.issue, which batch it for the processor's loop and never try
// cpu.Hit.
type refOnlyOps struct{ c *Ctx }

func (p refOnlyOps) read(a arch.Addr, sync bool) uint64 {
	return p.c.wait(cpu.Ref{Kind: arch.RefRead, Addr: a, Sync: sync, Out: &p.c.out})
}

func (p refOnlyOps) write(a arch.Addr, v uint64, sync bool) {
	p.c.issue(cpu.Ref{Kind: arch.RefWrite, Addr: a, WVal: v, Sync: sync})
}

func (p refOnlyOps) rmw(op cpu.RMWOp, a arch.Addr, v uint64, sync bool) uint64 {
	return p.c.wait(cpu.Ref{Kind: arch.RefRMW, RMW: op, Addr: a, WVal: v, Sync: sync, Out: &p.c.out})
}

// hitMix is a seeded thread body over every operation: data reads, writes
// and fetch-adds on a shared array larger than the cache, then a counter
// under a test-and-test&set lock and a sense barrier.
func hitMix(c *Ctx, o refOps, nodes int, shared *Array, lock, total, arrivals, sense arch.Addr) {
	for i := 0; i < 1500; i++ {
		r := c.Rand()
		a := shared.Addr(int(r % uint64(shared.Len())))
		switch r >> 60 % 8 {
		case 0, 1, 2, 3:
			o.read(a, false)
		case 4, 5, 6:
			o.write(a, r, false)
		default:
			o.rmw(cpu.RMWAdd, a, 1, false)
		}
		c.Busy(int(r>>40) % 24)
	}
	for k := 0; k < 10; k++ {
		for {
			for o.read(lock, true) != 0 {
				c.Busy(16)
			}
			if o.rmw(cpu.RMWSwap, lock, 1, true) == 0 {
				break
			}
		}
		o.write(total, o.read(total, false)+1, false)
		o.write(lock, 0, true)
		c.Busy(40)
	}
	if o.rmw(cpu.RMWAdd, arrivals, 1, true) == uint64(nodes-1) {
		o.write(sense, 1, true)
		return
	}
	for o.read(sense, true) != 1 {
		c.Busy(32)
	}
}

// TestThreadHitsMatchLoop: threads running the same seeded program, once
// through the public operations (thread-side hits) and once through
// Ctx.wait/issue alone (every reference on the loop), must leave identical
// machines — every processor counter and stall total, the elapsed time, the
// executed-event count and the shared array's data.
func TestThreadHitsMatchLoop(t *testing.T) {
	for _, kind := range []arch.MachineKind{arch.KindFLASH, arch.KindIdeal} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := tortureConfig(kind)
			cfg.CacheSize = 4 << 10
			run := func(ops func(*Ctx) refOps) (machineOutcome, []uint64) {
				m, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := NewWorld(m)
				shared := w.NewArray(4096)
				lock, total := w.AllocOnNode(arch.LineSize, 1), w.AllocOnNode(arch.LineSize, 3)
				arrivals, sense := w.AllocOnNode(arch.LineSize, 2), w.AllocOnNode(arch.LineSize, 2)
				if err := w.Run(func(c *Ctx) {
					hitMix(c, ops(c), cfg.Nodes, shared, lock, total, arrivals, sense)
				}, 200_000_000); err != nil {
					t.Fatal(err)
				}
				if got := *m.Word(total); got != uint64(cfg.Nodes*10) {
					t.Fatalf("lock-protected counter = %d, want %d", got, cfg.Nodes*10)
				}
				data := make([]uint64, shared.Len())
				for i := range data {
					data[i] = *m.Word(shared.Addr(i))
				}
				return outcomeOf(t, m), data
			}
			hit, hitData := run(func(c *Ctx) refOps { return publicOps{c} })
			ref, refData := run(func(c *Ctx) refOps { return refOnlyOps{c} })
			if !reflect.DeepEqual(hit, ref) {
				for i := range hit.Stats {
					if !reflect.DeepEqual(hit.Stats[i], ref.Stats[i]) {
						t.Errorf("cpu %d:\nthread-side hits %+v\nRefs only        %+v", i, hit.Stats[i], ref.Stats[i])
					}
				}
				t.Fatalf("thread-side hits (%d cycles, %d events) diverged from Refs only (%d cycles, %d events)",
					hit.Elapsed, hit.Executed, ref.Elapsed, ref.Executed)
			}
			if !reflect.DeepEqual(hitData, refData) {
				t.Fatal("shared array data differs")
			}
		})
	}
}
