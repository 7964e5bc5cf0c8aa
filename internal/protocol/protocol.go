package protocol

import (
	"fmt"
	"sync"

	"flashsim/internal/arch"
	"flashsim/internal/ppisa"
)

// Program bundles the scheduled handler image with its memory layout.
//
// Invariant: a Program is immutable once Build returns it. Build hands the
// same *Program to every caller with an equal build key, machines on
// different goroutines execute it concurrently, and ppsim keys its compiled
// images on the Code pointer — nothing may write through Code, Source or
// Layout afterwards.
type Program struct {
	Code   *ppisa.Program
	Layout Layout
	Source *ppisa.Source // pre-scheduling form, for static analysis
}

// buildKey is exactly what Build, NewLayout and Symbols read from a
// configuration; every other field (MDC geometry, PP clock, queue depths,
// timing, host-side engine and dispatch choices) leaves the program alone.
type buildKey struct {
	proto    arch.Protocol
	mode     arch.PPMode
	nodes    int
	memBytes int
}

// programs memoizes Build for the life of the process: a sweep builds
// hundreds of machines from a handful of distinct programs, and assembling
// and scheduling one costs more than constructing the rest of the machine.
var programs = struct {
	sync.Mutex
	m map[buildKey]*Program
}{m: map[buildKey]*Program{}}

// Build returns the assembled and scheduled protocol for the given
// configuration, building it on first use and sharing it (see Program's
// immutability invariant) afterwards. cfg.PPMode selects the Section 5.3
// ablation variants.
func Build(cfg *arch.Config) (*Program, error) {
	key := buildKey{cfg.Protocol, cfg.PPMode, cfg.Nodes, cfg.MemBytesPerNode}
	programs.Lock()
	defer programs.Unlock()
	if p := programs.m[key]; p != nil {
		return p, nil
	}
	p, err := assemble(cfg)
	if err != nil {
		return nil, err
	}
	programs.m[key] = p
	return p, nil
}

// assemble is the uncached build.
func assemble(cfg *arch.Config) (*Program, error) {
	l := NewLayout(cfg)
	text := handlerSource
	if cfg.Protocol == arch.ProtoBitVector {
		if cfg.Nodes > BVMaxNodes {
			return nil, fmt.Errorf("protocol: bit-vector directory supports at most %d nodes, got %d", BVMaxNodes, cfg.Nodes)
		}
		text = bitvecSource
	}
	src, err := ppisa.Assemble(text+sharedSource, l.Symbols())
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return &Program{Code: Schedule(src, cfg.PPMode), Layout: l, Source: src}, nil
}

// Schedule turns assembled handler source into the image a PP in the given
// mode runs: dual- or single-issue pairing, and for PPNoSpecial the DLX
// substitution of every special instruction first (Table 5.3).
func Schedule(src *ppisa.Source, mode arch.PPMode) *ppisa.Program {
	switch mode {
	case arch.PPSingleIssue:
		return ppisa.Schedule(src, ppisa.SingleIssue)
	case arch.PPNoSpecial:
		return ppisa.Schedule(ppisa.SubstituteDLX(src), ppisa.SingleIssue)
	}
	return ppisa.Schedule(src, ppisa.DualIssue)
}

// JTEntry is one jump table entry: the handler to dispatch and whether the
// inbox should initiate a speculative memory read (Section 5.1).
type JTEntry struct {
	Entry string
	Spec  bool
}

// fromPI reports jump table entries for messages arriving from the
// processor interface; isHome selects the local/remote handler variant.
func fromPI(t arch.MsgType, isHome bool) (JTEntry, bool) {
	if isHome {
		switch t {
		case arch.MsgGET:
			return JTEntry{"pi_get_local", true}, true
		case arch.MsgGETX:
			return JTEntry{"pi_getx_local", true}, true
		case arch.MsgWB:
			return JTEntry{"pi_wb_local", false}, true
		case arch.MsgRPL:
			return JTEntry{"pi_rpl_local", false}, true
		}
		return JTEntry{}, false
	}
	switch t {
	case arch.MsgGET:
		return JTEntry{"pi_get_remote", false}, true
	case arch.MsgGETX:
		return JTEntry{"pi_getx_remote", false}, true
	case arch.MsgWB:
		return JTEntry{"pi_wb_remote", false}, true
	case arch.MsgRPL:
		return JTEntry{"pi_rpl_remote", false}, true
	}
	return JTEntry{}, false
}

// fromNet reports jump table entries for messages arriving from the network
// interface.
func fromNet(t arch.MsgType) (JTEntry, bool) {
	switch t {
	case arch.MsgGET:
		return JTEntry{"ni_get", true}, true
	case arch.MsgGETX:
		return JTEntry{"ni_getx", true}, true
	case arch.MsgWB:
		return JTEntry{"ni_wb", false}, true
	case arch.MsgRPL:
		return JTEntry{"ni_rpl", false}, true
	case arch.MsgFwdGET:
		return JTEntry{"ni_fwd_get", false}, true
	case arch.MsgFwdGETX:
		return JTEntry{"ni_fwd_getx", false}, true
	case arch.MsgINVAL:
		return JTEntry{"ni_inval", false}, true
	case arch.MsgPUT:
		return JTEntry{"ni_put", false}, true
	case arch.MsgPUTX:
		return JTEntry{"ni_putx", false}, true
	case arch.MsgNAK:
		return JTEntry{"ni_nak", false}, true
	case arch.MsgIACK:
		return JTEntry{"ni_iack", false}, true
	case arch.MsgSWB:
		return JTEntry{"ni_swb", false}, true
	case arch.MsgXFER:
		return JTEntry{"ni_xfer", false}, true
	case arch.MsgPCLR:
		return JTEntry{"ni_pclr", false}, true
	}
	return JTEntry{}, false
}

// Lookup is the jump table: it maps a message arriving from the network
// (viaNet) or the processor interface to its handler; isHome reports whether
// this node is the home of the address. Most of the table's slots are
// empty (ok false).
func Lookup(t arch.MsgType, viaNet, isHome bool) (JTEntry, bool) {
	if viaNet {
		return fromNet(t)
	}
	return fromPI(t, isHome)
}
