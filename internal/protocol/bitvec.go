package protocol

// bitvec is an alternative directory format for MAGIC: a full bit-vector
// directory in the style of the original DASH machine. Each directory header
// carries a presence bit per node instead of a pointer to a sharer list,
// trading directory memory (unscalable beyond the vector width) for
// constant-time sharer bookkeeping and an invalidation fan-out driven by
// find-first-set over the vector. The home's own copy is its presence bit,
// and a dirty line's owner keeps its bit set.
//
// It exists because the paper's whole premise is that MAGIC can run
// *different* protocols: the same machine, jump table, message set, home
// handlers (homeSource) and directory-free handlers (sharedSource) run over
// either this format or dynptr, selected by arch.Config.Protocol; only the
// prelude and the directory operations below differ.
//
// Header layout (64 bits):
//
//	bit 0        DIRTY
//	bit 1        PENDING
//	bits 8..39   presence vector (node i at bit 8+i)
//	bits 40..49  outstanding invalidation acks
//	bits 50..57  owner when DIRTY
var bitvec = format{
	prelude: `
pp_init:
	ld    r27, G_MYID(r0)
	done

; subroutine: send invalidations to every presence bit except node r4.
; H_ADDR must already be set. Clears the vector in r3; ack count in r9.
; Clobbers r5, r6, r10, r12. The fan-out is the protocol's showcase use of
; find-first-set.
inval_vector:
	add   r9, r0, r0
	li    r5, M_INVAL
	mth   H_TYPE, r5
	ext   r10, r3, PRES_POS, PRES_W
	andfi r3, r3, PRES_POS, PRES_W
	; drop the requester's own bit
	addi  r5, r0, 1
	sll   r5, r5, r4
	not   r5, r5
	and   r10, r10, r5
	; drop our own bit (the caller invalidates the local cache separately)
	addi  r5, r0, 1
	sll   r5, r5, r27
	not   r5, r5
	and   r10, r10, r5
.loop:
	beq   r10, r0, .done
	ffs   r12, r10
	mth   H_DST, r12
	send  NET
	addi  r9, r9, 1
	addi  r5, r0, 1
	sll   r5, r5, r12
	xor   r10, r10, r5
	j     .loop
.done:
	jr    r28
`,
	ops: map[string]string{
		"inval": "jal inval_vector",
		"share": `
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6`,
		"reload_src":  "",
		"set_local":   "",
		"clear_local": "",
		"present": `
	addi  r5, $1, PRES_POS
	addi  $2, r0, 1
	sll   $2, $2, r5
	or    r3, r3, $2`,
		"absent": `
	addi  r5, $1, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6`,
		"if_no_home_copy": `
	srl   r6, r3, r27
	srli  r6, r6, PRES_POS
	andi  r6, r6, 1
	beq   r6, r0, $1`,
		// A hint clears the sender's presence bit unless the line is dirty.
		"rpl": `
	bbs   r3, B_DIRTY, .out
	mfh   r4, H_SRC
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	st    r3, 0(r2)
.out:
	done`,
	},
}

// Bit-vector header fields.
const (
	BVPresPos, BVPresW   = 8, 32
	BVAckPos, BVAckW     = 40, 10
	BVOwnerPos, BVOwnerW = 50, 8
	// BVMaxNodes bounds the presence vector.
	BVMaxNodes = BVPresW
)
