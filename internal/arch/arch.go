// Package arch defines the architectural constants and types shared by every
// component of the FLASH simulator: addresses, cache-line geometry, node
// identifiers, inter- and intra-node messages, and machine configuration.
//
// The numeric constants reproduce Table 3.2 of the paper ("Suboperation
// Latencies in 10 ns Cycles"); composite latencies such as the 27-cycle local
// clean read miss emerge from the component models, not from tables.
package arch

import "fmt"

// Addr is a global physical byte address in the machine's shared address
// space.
type Addr uint64

// NodeID identifies a FLASH node (processor + caches + MAGIC + memory slice).
type NodeID int32

const (
	// LineSize is the cache line size in bytes (both machines, Section 3.2).
	LineSize = 128
	// LineShift is log2(LineSize).
	LineShift = 7
	// PageSize is the placement granularity for distributing physical pages
	// across node memories.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// WordSize is the width of the path to memory (64 bits).
	WordSize = 8
	// WordsPerLine is the number of 8-byte words in a cache line.
	WordsPerLine = LineSize / WordSize
)

// Line returns the cache-line index of a.
func (a Addr) Line() uint64 { return uint64(a) >> LineShift }

// LineAddr returns the address of the first byte of a's cache line.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// Page returns the page index of a.
func (a Addr) Page() uint64 { return uint64(a) >> PageShift }

// Timing holds the suboperation latencies of Table 3.2, in 10 ns cycles.
// FLASH and the ideal machine share every field except where noted.
type Timing struct {
	MissDetect  uint32 // miss detect to request on bus
	BusTransit  uint32 // processor bus transit
	PIInbound   uint32 // processor interface inbound processing
	PIOutbound  uint32 // PI outbound processing (4 FLASH, 2 ideal)
	PIBusArb    uint32 // outbound bus arbitration
	PIBusWord   uint32 // outbound bus transit for first word
	PCacheState uint32 // retrieve state from processor cache
	PCacheData  uint32 // retrieve first double word from processor cache
	NIInbound   uint32 // network interface inbound processing
	NIOutbound  uint32 // NI outbound processing
	InboxSelect uint32 // inbox queue selection and arbitration
	JumpTable   uint32 // jump table lookup (FLASH only; 0 for ideal)
	MDCMiss     uint32 // MAGIC data cache miss penalty (FLASH only)
	OutboxOut   uint32 // outbox outbound processing (FLASH only)
	NetTransit  uint32 // network transit, average case
	MemAccess   uint32 // memory access, time to first 8 bytes
	MemLineBusy uint32 // memory controller busy time per full-line access
	BusLineBusy uint32 // processor bus busy time streaming a full line
	NakBackoff  uint32 // processor cache retry delay after a NAK
	InvalIssue  uint32 // PI-side latency to invalidate the processor cache
}

// DefaultTiming returns the FLASH latencies of Table 3.2 for a 16-processor
// machine (22-cycle average network transit).
func DefaultTiming() Timing {
	return Timing{
		MissDetect:  5,
		BusTransit:  1,
		PIInbound:   1,
		PIOutbound:  4,
		PIBusArb:    1,
		PIBusWord:   1,
		PCacheState: 15,
		PCacheData:  20,
		NIInbound:   8,
		NIOutbound:  4,
		InboxSelect: 1,
		JumpTable:   2,
		MDCMiss:     29,
		OutboxOut:   1,
		NetTransit:  0, // derived from the node count unless overridden
		MemAccess:   14,
		// A full 128-byte line over the 64-bit memory path: 14 cycles to the
		// first word plus one word per cycle for the remaining 15. This also
		// reproduces the 29-cycle MDC miss penalty of Table 3.2.
		MemLineBusy: 29,
		BusLineBusy: 16,
		NakBackoff:  20,
		InvalIssue:  15,
	}
}

// In DefaultTiming NetTransit is left zero, meaning "derive from the node
// count when the machine is built" (22 cycles for 16 processors); set it
// explicitly to pin a sweep value.

// IdealTiming returns the latencies assumed for the idealized hardwired
// machine: PI outbound drops to 2 cycles and every macropipeline
// suboperation (jump table, handler execution, MDC, outbox) takes zero time.
func IdealTiming() Timing {
	t := DefaultTiming()
	t.PIOutbound = 2
	t.JumpTable = 0
	t.MDCMiss = 0
	t.OutboxOut = 0
	return t
}

// MsgType enumerates protocol message types. These correspond one-for-one to
// jump table entries in MAGIC.
type MsgType uint8

const (
	// Requests from the local processor (PI) or from remote nodes (NI).
	MsgGET  MsgType = iota // read request
	MsgGETX                // read-exclusive (write) request
	MsgWB                  // writeback of a dirty line (carries data)
	MsgRPL                 // replacement hint for a clean line

	// Home-generated traffic.
	MsgFwdGET  // forwarded read to the dirty node
	MsgFwdGETX // forwarded read-exclusive to the dirty node
	MsgINVAL   // invalidate a shared copy

	// Replies.
	MsgPUT  // data reply, shared
	MsgPUTX // data reply, exclusive (carries pending-invalidation count)
	MsgNAK  // negative acknowledgment; requester must retry
	MsgIACK // invalidation acknowledgment (sent to the home node)
	MsgSWB  // sharing writeback: dirty data to home on a 3-hop read
	MsgXFER // ownership transfer notice to home on a 3-hop write
	MsgPCLR // pending-clear: a forwarded request found the line already written back

	// PI-internal transactions (MAGIC -> processor cache).
	MsgPIData   // data reply to the processor (completes a miss)
	MsgPIInval  // invalidate processor cache line
	MsgPIDowngr // retrieve dirty data, downgrade M->S
	MsgPIFlush  // retrieve dirty data and invalidate

	// Processor-cache responses to PI interventions.
	MsgPCData  // dirty data retrieved from the processor cache
	MsgPCClean // line was not dirty (writeback raced the intervention)

	NumMsgTypes
)

var msgNames = [NumMsgTypes]string{
	"GET", "GETX", "WB", "RPL",
	"FwdGET", "FwdGETX", "INVAL",
	"PUT", "PUTX", "NAK", "IACK", "SWB", "XFER", "PCLR",
	"PIData", "PIInval", "PIDowngr", "PIFlush",
	"PCData", "PCClean",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// IsReply reports whether t travels on the reply virtual network. Requests
// and replies use separate virtual networks and separate MAGIC queues so
// that reply traffic can always drain (deadlock avoidance).
func (t MsgType) IsReply() bool {
	switch t {
	case MsgPUT, MsgPUTX, MsgNAK, MsgIACK, MsgSWB, MsgXFER, MsgPCLR:
		return true
	}
	return false
}

// CarriesData reports whether messages of type t carry a full cache line and
// therefore occupy a MAGIC data buffer.
func (t MsgType) CarriesData() bool {
	switch t {
	case MsgWB, MsgPUT, MsgPUTX, MsgSWB, MsgPIData, MsgPCData:
		return true
	}
	return false
}

// Msg is a protocol message. Within a node the same structure represents
// PI, NI and memory-system transactions; between nodes it is what the mesh
// carries.
type Msg struct {
	Type MsgType
	Addr Addr   // line-aligned target address
	Src  NodeID // originating node
	Dst  NodeID // destination node
	Req  NodeID // original requester (for forwarded messages)
	Aux  uint32 // type-specific: invalidation count for PUTX, etc.
	DB   int16  // data buffer index inside a node; -1 if none

	// TID is the observability layer's causal trace id: the id of the trace
	// event that produced this message (0 when tracing is off). It is
	// carried, never interpreted — simulated behavior must not depend on it.
	TID uint64
}

// RefKind is the kind of memory reference a processor issues.
type RefKind uint8

const (
	RefRead RefKind = iota
	RefWrite
	RefRMW // atomic read-modify-write (synchronization)
)

func (k RefKind) String() string {
	switch k {
	case RefRead:
		return "read"
	case RefWrite:
		return "write"
	default:
		return "rmw"
	}
}

// MissClass classifies a read miss by where it was satisfied, matching the
// five rows of Table 4.1.
type MissClass uint8

const (
	MissLocalClean      MissClass = iota // clean in local node's memory
	MissLocalDirty                       // local address, dirty in a remote cache
	MissRemoteClean                      // clean in home node's memory
	MissRemoteDirtyHome                  // dirty in home node's processor cache
	MissRemoteDirty3rd                   // dirty in a third node's cache
	NumMissClasses
)

var missClassNames = [NumMissClasses]string{
	"Local Clean", "Local Dirty Remote", "Remote Clean",
	"Remote Dirty at Home", "Remote Dirty Remote",
}

func (c MissClass) String() string { return missClassNames[c] }

// RestoreSlice installs a captured fixed-size state array into dst: a copy
// taken from a unit of the same geometry is copied in, and nil (a zero
// state record) clears dst.
func RestoreSlice[T any](dst, src []T) {
	if src != nil && len(src) != len(dst) {
		panic(fmt.Sprintf("arch: restoring %d state entries into %d", len(src), len(dst)))
	}
	clear(dst[copy(dst, src):])
}
