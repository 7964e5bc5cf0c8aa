package magic

import (
	"testing"

	"flashsim/internal/arch"
	"flashsim/internal/cpu"
	"flashsim/internal/ppisa"
	"flashsim/internal/protocol"
	"flashsim/internal/trace"
)

// waitSource is a handler program built to stall MAGIC's PP in each of the
// ways it can wait. A local read (pi_get_local) sends a PIDowngr to its own
// processor, then eight messages to node 1 through a one-entry outgoing
// network queue, then executes WAITPC: the cache answers while the handler
// is still blocked on a send, so WAITPC finds the answer already recorded.
// A local write (pi_getx_local) replies at once; two back to back meet the
// one-entry PI slot still held by the first reply. Every other entry, node
// 1's receipt of the messages included, does nothing.
const waitSource = `
pi_get_local:
	li    r5, M_PIDOWNGR
	mth   H_TYPE, r5
	send  PI
	li    r4, 1
	mth   H_DST, r4
	li    r5, M_IACK
	mth   H_TYPE, r5
	send  NET
	send  NET
	send  NET
	send  NET
	send  NET
	send  NET
	send  NET
	send  NET
	waitpc
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	send  PI|DATA
	done
pi_getx_local:
	li    r5, M_PUTX
	mth   H_TYPE, r5
	send  PI|DATA
	done
pp_init:
pi_wb_local:
pi_rpl_local:
pi_get_remote:
pi_getx_remote:
pi_wb_remote:
pi_rpl_remote:
ni_get:
ni_getx:
ni_wb:
ni_rpl:
ni_fwd_get:
ni_fwd_getx:
ni_inval:
ni_put:
ni_putx:
ni_nak:
ni_iack:
ni_swb:
ni_xfer:
ni_pclr:
	done
`

// TestHandlerWaits runs waitSource and checks each wait from the outside:
// the cycles of node 0's sends, handler spans and cache fills.
func TestHandlerWaits(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	cfg.NetQueueCap = 1
	l := protocol.NewLayout(&cfg)
	src, err := ppisa.Assemble(waitSource, l.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := protocol.NewProgram(src, cfg.PPMode, l)
	if err != nil {
		t.Fatal(err)
	}
	const x, y, z = 0x1000, 0x2000, 0x3000 // homed at node 0
	r := buildRigProg(t, cfg, prog, [2][]cpu.Ref{
		{{Kind: arch.RefRead, Addr: x}, {Kind: arch.RefWrite, Addr: y}, {Kind: arch.RefWrite, Addr: z}},
		nil,
	})
	var buf trace.Buffer
	tr := trace.New(&buf)
	r.magics[0].Tr, r.cpus[0].Tr, r.net.Port(0, nil).Tr = tr, tr, tr
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, m := range r.magics {
		if !m.quiet(m.Eng.Now()) {
			t.Errorf("node %d controller after the run: %s", i, m.DebugState())
		}
	}
	if st := &r.cpus[0].Stats; !st.Finished || st.Misses != 3 {
		t.Fatalf("node 0 finished %v after %d misses, want 3", st.Finished, st.Misses)
	}

	var sends []uint64
	var spans []trace.Event
	fills := map[uint64]uint64{}
	for _, ev := range buf.Events {
		switch ev.Kind {
		case trace.KindMsgSend:
			sends = append(sends, ev.Cycle)
		case trace.KindHandler:
			spans = append(spans, ev)
		case trace.KindFill:
			fills[ev.Addr] = ev.Cycle
		}
	}
	if len(spans) != 3 || spans[0].Name != "pi_get_local" || spans[1].Name != "pi_getx_local" || spans[2].Name != "pi_getx_local" {
		t.Fatalf("node 0 handlers %v, want pi_get_local then pi_getx_local twice", spans)
	}
	T := r.magics[0].T

	// A full network queue: each send waits for the previous message to
	// leave the NI, is accepted the cycle it does, and leaves in turn
	// OutboxOut+NIOutbound later.
	if len(sends) != 8 {
		t.Fatalf("node 0 sent %d messages, want 8", len(sends))
	}
	step := uint64(T.OutboxOut + T.NIOutbound)
	for i := 1; i < len(sends); i++ {
		if sends[i]-sends[i-1] != step {
			t.Fatalf("node 0 injections at %v: want one every %d cycles", sends, step)
		}
	}

	// The PIDowngr answer arrives while the handler is blocked on a send:
	// it was issued before the first send was accepted, so it is in by
	// PCacheState after crossing the outbox and the PI, which is before the
	// last send is accepted. WAITPC then proceeds without a second wait.
	firstAccept, lastAccept := sends[0]-step, sends[len(sends)-1]-step
	answerBy := firstAccept + uint64(T.OutboxOut+T.PIOutbound+T.PCacheState)
	if answerBy >= lastAccept {
		t.Fatalf("PIDowngr answered by %d, last send accepted at %d: the answer does not land during the sends", answerBy, lastAccept)
	}
	if get := spans[0]; get.Cycle+get.Dur >= lastAccept+uint64(T.PCacheState) {
		t.Errorf("pi_get_local ran [%d,%d) with its last send accepted at %d: WAITPC waited for an answer already in", get.Cycle, get.Cycle+get.Dur, lastAccept)
	}

	// A busy PI slot: the second write's handler dispatches while the first
	// reply is still on its way to the processor and holds the PP until that
	// reply crosses the bus, while the first handler retired without waiting.
	first, second, fillY := spans[1], spans[2], fills[y]
	if !(first.Cycle+first.Dur < fillY && second.Cycle < fillY && second.Cycle+second.Dur > fillY) {
		t.Errorf("pi_getx_local ran [%d,%d) and [%d,%d), first reply filled at %d: want the second to wait for it",
			first.Cycle, first.Cycle+first.Dur, second.Cycle, second.Cycle+second.Dur, fillY)
	}
}

// releaseSource fills a two-entry outgoing network queue out of injection
// order: a local read (pi_get_local, which the inbox reads memory for
// speculatively) sends a data message to node 1 that injects once the data
// is in, then a header-only one that injects at once, then a third that
// finds the queue full. It then answers its processor.
const releaseSource = `
pi_get_local:
	li    r4, 1
	mth   H_DST, r4
	li    r5, M_IACK
	mth   H_TYPE, r5
	send  NET|DATA
	send  NET
	send  NET
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	send  PI|DATA
	done
pp_init:
pi_getx_local:
pi_wb_local:
pi_rpl_local:
pi_get_remote:
pi_getx_remote:
pi_wb_remote:
pi_rpl_remote:
ni_get:
ni_getx:
ni_wb:
ni_rpl:
ni_fwd_get:
ni_fwd_getx:
ni_inval:
ni_put:
ni_putx:
ni_nak:
ni_iack:
ni_swb:
ni_xfer:
ni_pclr:
	done
`

// TestNetReleaseAtEarliestInjection pins which slot a send refused by a
// full network queue waits for: the first injection to come, not the oldest
// accepted message. The third send is accepted the cycle the header-only
// message leaves, while the data message is still waiting for its data.
func TestNetReleaseAtEarliestInjection(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	cfg.NetQueueCap = 2
	l := protocol.NewLayout(&cfg)
	src, err := ppisa.Assemble(releaseSource, l.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := protocol.NewProgram(src, cfg.PPMode, l)
	if err != nil {
		t.Fatal(err)
	}
	r := buildRigProg(t, cfg, prog, [2][]cpu.Ref{{{Kind: arch.RefRead, Addr: 0x1000}}, nil})
	var buf trace.Buffer
	tr := trace.New(&buf)
	r.net.Port(0, nil).Tr = tr
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var sends []uint64
	for _, ev := range buf.Events {
		if ev.Kind == trace.KindMsgSend {
			sends = append(sends, ev.Cycle)
		}
	}
	if len(sends) != 3 {
		t.Fatalf("node 0 injected at %v, want three messages", sends)
	}
	T := r.magics[0].T
	data, hdr, third := sends[0], sends[1], sends[2]
	if data <= hdr {
		t.Fatalf("injections at %v: the data message does not leave after the header-only one", sends)
	}
	if want := hdr + uint64(T.OutboxOut+T.NIOutbound); third != want {
		t.Errorf("injections at %v: third injected at %d, want %d (accepted when the header-only message left at %d)", sends, third, want, hdr)
	}
}

// orderSource makes a release's place among its cycle's events visible. A
// local read (pi_get_local) sends a data message to node 1, which injects
// once the speculative read's data is in; then answers its processor with a
// header-only reply timed (by the addi chain) to cross the bus the cycle
// that message injects; then finds the one-entry network queue full; and,
// once released, invalidates the line it just supplied.
const orderSource = `
pi_get_local:
	li    r4, 1
	mth   H_DST, r4
	li    r5, M_IACK
	mth   H_TYPE, r5
	send  NET|DATA
	mfh   r4, H_SRC
	addi  r4, r4, 0
	addi  r4, r4, 0
	addi  r4, r4, 0
	addi  r4, r4, 0
	addi  r4, r4, 0
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	send  PI
	li    r4, 1
	mth   H_DST, r4
	li    r5, M_IACK
	mth   H_TYPE, r5
	send  NET
	li    r5, M_PIINVAL
	mth   H_TYPE, r5
	send  PI
	done
pp_init:
pi_getx_local:
pi_wb_local:
pi_rpl_local:
pi_get_remote:
pi_getx_remote:
pi_wb_remote:
pi_rpl_remote:
ni_get:
ni_getx:
ni_wb:
ni_rpl:
ni_fwd_get:
ni_fwd_getx:
ni_inval:
ni_put:
ni_putx:
ni_nak:
ni_iack:
ni_swb:
ni_xfer:
ni_pclr:
	done
`

// TestNetReleaseInSendOrder pins where a release runs within its cycle:
// where the injection it waits for ran, which was scheduled at that
// message's send, ahead of the reply sent after it. The reply and the
// injection land on the same cycle, so the released handler resumes ahead
// of the processor the reply restarts, and its invalidation turns the
// processor's next read of the line into a second miss. A release that
// sorted as scheduled at the refusal would run after the reply, and the
// read would hit.
func TestNetReleaseInSendOrder(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Kind = arch.KindFLASH
	cfg.Nodes = 2
	cfg.MemBytesPerNode = 1 << 20
	cfg.NetQueueCap = 1
	l := protocol.NewLayout(&cfg)
	src, err := ppisa.Assemble(orderSource, l.Symbols())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := protocol.NewProgram(src, cfg.PPMode, l)
	if err != nil {
		t.Fatal(err)
	}
	const x = 0x1000 // homed at node 0
	r := buildRigProg(t, cfg, prog, [2][]cpu.Ref{{{Kind: arch.RefRead, Addr: x}, {Kind: arch.RefRead, Addr: x + 8}}, nil})
	var buf trace.Buffer
	tr := trace.New(&buf)
	r.net.Port(0, nil).Tr, r.cpus[0].Tr = tr, tr
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	var send, fill, inval uint64
	for _, ev := range buf.Events {
		switch {
		case ev.Kind == trace.KindMsgSend && send == 0:
			send = ev.Cycle
		case ev.Kind == trace.KindFill && fill == 0:
			fill = ev.Cycle
		case ev.Kind == trace.KindIntervene && inval == 0:
			inval = ev.Cycle
		}
	}
	if send == 0 || send != fill || inval != send {
		t.Fatalf("first injection at %d, first fill at %d, first invalidation at %d: want one cycle", send, fill, inval)
	}
	if st := &r.cpus[0].Stats; !st.Finished || st.Misses != 2 {
		t.Errorf("node 0 finished %v after %d misses, want 2: the resumed handler's invalidation did not precede the processor's next read", st.Finished, st.Misses)
	}
}
