// Package protocol implements the dynamic pointer allocation cache-coherence
// protocol of the FLASH prototype (Simoni's scheme, Section 3.3 of the
// paper) as PP handler code. Every directory operation — header updates,
// sharer-list traversal, invalidation fan-out, writeback processing — is
// performed by assembly handlers executed on the PPsim emulator, exactly as
// the real machine ran compiled C handlers on MAGIC.
//
// Protocol data structures live in node-local protocol memory, accessed by
// the PP through the MAGIC data cache:
//
//	globals    (one line):  node id, home base address, free-list head, ...
//	directory  (8 B/line):  state bits, sharer-list head, ack count, owner
//	pointer pool (8 B/entry): {node, next} links for sharer lists
package protocol

import (
	"flashsim/internal/arch"
	"flashsim/internal/memsys"
	"flashsim/internal/ppisa"
)

// Directory header bit layout (64-bit word per local memory line).
const (
	BDirty   = 0 // line is dirty in exactly one processor cache
	BPending = 1 // a 3-hop transaction or invalidation set is outstanding
	BLocal   = 2 // the home node's own processor has a copy
	BList    = 3 // the sharer list head is valid
	BOvfl    = 4 // pointer pool exhausted; invalidations broadcast

	HeadPos, HeadW   = 8, 20  // sharer list head (pool index)
	AckPos, AckW     = 28, 16 // outstanding invalidation acknowledgments
	OwnerPos, OwnerW = 44, 16 // owning node when BDirty
)

// Pointer-pool entry layout.
const (
	NodePos, NodeW = 0, 16
	NextPos, NextW = 16, 20
	NullPtr        = 1<<NextW - 1 // list terminator / empty free list
)

// Globals block (byte offsets in protocol memory).
const (
	GMyID       = 0
	GHomeBase   = 8
	GFreeHead   = 16
	GNNodes     = 24
	GlobalsSize = 128 // one MDC line
)

// FreeHeadReg is the PP register in which the dynamic pointer allocation
// program keeps the free-list head at run time (pp_init loads it from
// G_FREEHEAD); the pool audit reads it from there.
const FreeHeadReg = 24

// Layout describes where protocol structures live in a node's protocol
// memory, derived from the machine configuration.
type Layout struct {
	Proto    arch.Protocol
	DirBase  int64 // directory headers
	PtrBase  int64 // pointer pool (dynamic pointer allocation only)
	PoolSize int64 // number of pool entries
	MemBytes int64 // bytes of protocol memory needed
}

// NewLayout computes the protocol memory layout for one node.
func NewLayout(cfg *arch.Config) Layout {
	lines := int64(cfg.MemBytesPerNode / arch.LineSize)
	l := Layout{Proto: cfg.Protocol, DirBase: GlobalsSize}
	if cfg.Protocol == arch.ProtoBitVector {
		// The bit-vector directory is self-contained in the headers.
		l.PtrBase = GlobalsSize + lines*8
		l.MemBytes = l.PtrBase
		return l
	}
	// Size the pool at 4 entries per line; replacement hints keep real
	// occupancy far lower. The pool index space is NextW bits with NullPtr
	// reserved as the sentinel, so the pool must stop short of it.
	pool := lines * 4
	if pool > NullPtr {
		pool = NullPtr
	}
	l.PtrBase = GlobalsSize + lines*8
	l.PoolSize = pool
	l.MemBytes = l.PtrBase + pool*8
	return l
}

// Symbols returns the assembler symbol table for the handler sources.
func (l Layout) Symbols() map[string]int64 {
	syms := map[string]int64{
		// Message types.
		"M_GET": int64(arch.MsgGET), "M_GETX": int64(arch.MsgGETX),
		"M_WB": int64(arch.MsgWB), "M_RPL": int64(arch.MsgRPL),
		"M_FWDGET": int64(arch.MsgFwdGET), "M_FWDGETX": int64(arch.MsgFwdGETX),
		"M_INVAL": int64(arch.MsgINVAL),
		"M_PUT":   int64(arch.MsgPUT), "M_PUTX": int64(arch.MsgPUTX),
		"M_NAK": int64(arch.MsgNAK), "M_IACK": int64(arch.MsgIACK),
		"M_SWB": int64(arch.MsgSWB), "M_XFER": int64(arch.MsgXFER),
		"M_PCLR":    int64(arch.MsgPCLR),
		"M_PIINVAL": int64(arch.MsgPIInval), "M_PIDOWNGR": int64(arch.MsgPIDowngr),
		"M_PIFLUSH": int64(arch.MsgPIFlush),

		// Header fields.
		"H_TYPE": ppisa.HdrType, "H_ADDR": ppisa.HdrAddr,
		"H_SRC": ppisa.HdrSrc, "H_DST": ppisa.HdrSrc, // outgoing alias
		"H_REQ": ppisa.HdrReq, "H_AUX": ppisa.HdrAux,
		"H_PCKIND": ppisa.HdrPCKind, "H_DIROFF": ppisa.HdrDirOff,
		"H_SELF": ppisa.HdrSelf,

		// Send flags.
		"NET": ppisa.SendNet, "PI": ppisa.SendPI, "DATA": ppisa.SendData,

		// Directory header fields.
		"B_DIRTY": BDirty, "B_PENDING": BPending, "B_LOCAL": BLocal,
		"B_LIST": BList, "B_OVFL": BOvfl,
		"HEAD_POS": HeadPos, "HEAD_W": HeadW,
		"ACK_POS": AckPos, "ACK_W": AckW,
		"OWNER_POS": OwnerPos, "OWNER_W": OwnerW,

		// Pool entries.
		"NODE_POS": NodePos, "NODE_W": NodeW,
		"NEXT_POS": NextPos, "NEXT_W": NextW,
		"NULLPTR": NullPtr,

		// Globals.
		"G_MYID": GMyID, "G_HOMEBASE": GHomeBase,
		"G_FREEHEAD": GFreeHead, "G_NNODES": GNNodes,

		// Layout.
		"DIRBASE": l.DirBase, "PTRBASE": l.PtrBase,

		// Bit-vector protocol fields.
		"PRES_POS": BVPresPos, "PRES_W": BVPresW,
	}
	if l.Proto == arch.ProtoBitVector {
		syms["ACK_POS"], syms["ACK_W"] = BVAckPos, BVAckW
		syms["OWNER_POS"], syms["OWNER_W"] = BVOwnerPos, BVOwnerW
	}
	return syms
}

// FillPristine writes into dst, which the caller has zeroed, the nonzero
// words among protocol-memory words base..base+len(dst)-1 as they stand
// before any handler writes them. Only the free list threaded through the
// pointer pool is nonzero (entry k links to k+1, the last to NullPtr); the
// globals and the all-clean directory are zero. The image is a pure
// function of the layout and the word index — the same on every node —
// which is what lets a node's protocol memory stay unmaterialized until
// touched and lets snapshots share the untouched part by construction (see
// memsys.Store).
func (l Layout) FillPristine(base uint64, dst []uint64) {
	pool, end := l.poolWord(0), l.poolWord(uint64(l.PoolSize))
	lo, hi := max(base, pool), min(base+uint64(len(dst)), end)
	for i := lo; i < hi; i++ {
		dst[i-base] = (i - pool + 1) << NextPos
	}
	if lo < hi && hi == end {
		dst[end-1-base] = NullPtr << NextPos
	}
}

// InitMemory initializes one node's protocol memory image: the pristine
// directory and free list by construction, plus the globals. The free-list
// head, entry 0, is the pristine zero.
func (l Layout) InitMemory(mem *memsys.Store, id arch.NodeID, homeBase arch.Addr, nnodes int) {
	mem.SetPristine(l.FillPristine)
	*mem.Word(GMyID / 8) = uint64(id)
	*mem.Word(GHomeBase / 8) = uint64(homeBase)
	*mem.Word(GNNodes / 8) = uint64(nnodes)
}

// DirOffset returns the protocol-memory byte offset of the directory header
// for local line index i.
func (l Layout) DirOffset(localLine uint64) uint64 {
	return uint64(l.DirBase) + localLine*8
}
