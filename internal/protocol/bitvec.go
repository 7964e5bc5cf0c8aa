package protocol

// bitvecSource is an alternative cache-coherence protocol for MAGIC: a full
// bit-vector directory in the style of the original DASH machine. Each
// directory header carries a presence bit per node instead of a pointer to
// a sharer list, trading directory memory (unscalable beyond the vector
// width) for constant-time sharer bookkeeping and an invalidation fan-out
// driven by find-first-set over the vector.
//
// It exists because the paper's whole premise is that MAGIC can run
// *different* protocols: the same machine, jump table, and message set run
// either this program or the dynamic-pointer-allocation one, selected by
// arch.Config.Protocol. Handler entry names match the dynptr program, so
// the jump table is shared, and so is every handler that never touches a
// directory (sharedSource): this text holds only the bit-vector home side.
//
// Header layout (64 bits):
//
//	bit 0        DIRTY
//	bit 1        PENDING
//	bits 8..39   presence vector (node i at bit 8+i; self bit = LOCAL)
//	bits 40..49  outstanding invalidation acks
//	bits 50..57  owner when DIRTY
const bitvecSource = `
pp_init:
	ld    r27, G_MYID(r0)
	done

; ---------------------------------------------------------------------------
; subroutine: send invalidations to every presence bit except node r4.
; H_ADDR must already be set. Clears the vector in r3; ack count in r9.
; Clobbers r5, r6, r10, r12. The fan-out is the protocol's showcase use of
; find-first-set.
; ---------------------------------------------------------------------------
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

; local read miss ---------------------------------------------------------------
pi_get_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	st    r3, 0(r2)
	mfh   r1, H_ADDR
	li    r5, M_PUT
	mth   H_TYPE, r5
	mth   H_AUX, r0
	memrd r1
	send  PI|DATA
	done
.dirty:
	ext   r4, r3, OWNER_POS, OWNER_W
	beq   r4, r27, nak_pi
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r27
	li    r5, M_FWDGET
	mth   H_TYPE, r5
	send  NET
	done

; local write miss --------------------------------------------------------------
pi_getx_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	add   r4, r27, r0
	jal   inval_vector
	orfi  r3, r3, B_DIRTY, 1
	ins   r3, r27, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	beq   r9, r0, .noack
	orfi  r3, r3, B_PENDING, 1
.noack:
	st    r3, 0(r2)
	li    r5, M_PUTX
	mth   H_TYPE, r5
	mth   H_AUX, r0
	memrd r1
	send  PI|DATA
	done
.dirty:
	ext   r4, r3, OWNER_POS, OWNER_W
	beq   r4, r27, nak_pi
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r27
	li    r5, M_FWDGETX
	mth   H_TYPE, r5
	send  NET
	done

; local writeback / hint --------------------------------------------------------
pi_wb_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	bne   r4, r27, .out
	andfi r3, r3, B_DIRTY, 1
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	ext   r6, r3, ACK_POS, ACK_W
	bne   r6, r0, .st
	andfi r3, r3, B_PENDING, 1
.st:
	st    r3, 0(r2)
.out:
	done

pi_rpl_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_DIRTY, .out
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	st    r3, 0(r2)
.out:
	done

; read at home from remote -------------------------------------------------------
ni_get:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r4, H_SRC
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	st    r3, 0(r2)
	mfh   r1, H_ADDR
	li    r5, M_PUT
	mth   H_TYPE, r5
	mth   H_AUX, r0
	memrd r1
	send  NET|DATA
	done
.dirty:
	ext   r4, r3, OWNER_POS, OWNER_W
	beq   r4, r27, .local
	mfh   r6, H_SRC
	beq   r4, r6, nak_net
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r6
	li    r5, M_FWDGET
	mth   H_TYPE, r5
	send  NET
	done
.local:
	li    r5, M_PIDOWNGR
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, nak_net
	mfh   r1, H_ADDR
	memwr r1
	andfi r3, r3, B_DIRTY, 1
	mfh   r4, H_SRC
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	st    r3, 0(r2)
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5
	send  NET|DATA
	done

; write at home from remote ------------------------------------------------------
ni_getx:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	; invalidate our own copy if present
	srl   r6, r3, r27
	srli  r6, r6, PRES_POS
	andi  r6, r6, 1
	beq   r6, r0, .noloc
	li    r5, M_PIINVAL
	mth   H_TYPE, r5
	send  PI
.noloc:
	mfh   r4, H_SRC
	jal   inval_vector
	orfi  r3, r3, B_DIRTY, 1
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	beq   r9, r0, .noack
	orfi  r3, r3, B_PENDING, 1
.noack:
	st    r3, 0(r2)
	mth   H_DST, r4
	li    r5, M_PUTX
	mth   H_TYPE, r5
	mth   H_AUX, r0
	memrd r1
	send  NET|DATA
	done
.dirty:
	ext   r4, r3, OWNER_POS, OWNER_W
	beq   r4, r27, .local
	mfh   r6, H_SRC
	beq   r4, r6, nak_net
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r6
	li    r5, M_FWDGETX
	mth   H_TYPE, r5
	send  NET
	done
.local:
	li    r5, M_PIFLUSH
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, nak_net
	mfh   r1, H_ADDR
	memwr r1
	addi  r5, r27, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	st    r3, 0(r2)
	mth   H_DST, r4
	li    r5, M_PUTX
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5
	send  NET|DATA
	done

; writeback / hint at home -------------------------------------------------------
ni_wb:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	mfh   r5, H_SRC
	bne   r4, r5, .out
	andfi r3, r3, B_DIRTY, 1
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	ext   r6, r3, ACK_POS, ACK_W
	bne   r6, r0, .st
	andfi r3, r3, B_PENDING, 1
.st:
	st    r3, 0(r2)
.out:
	done

ni_rpl:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_DIRTY, .out
	mfh   r4, H_SRC
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	st    r3, 0(r2)
.out:
	done

; replies at the home ----------------------------------------------------------------
ni_swb:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	mfh   r5, H_SRC
	bne   r4, r5, .out
	andfi r3, r3, B_DIRTY, 2
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	mfh   r4, H_REQ
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	or    r3, r3, r6
	st    r3, 0(r2)
.out:
	done

ni_xfer:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	mfh   r5, H_SRC
	bne   r4, r5, .out
	; hand ownership over: clear the old owner's presence bit, set the new
	addi  r5, r4, PRES_POS
	addi  r6, r0, 1
	sll   r6, r6, r5
	not   r6, r6
	and   r3, r3, r6
	mfh   r6, H_REQ
	ins   r3, r6, OWNER_POS, OWNER_W
	addi  r5, r6, PRES_POS
	addi  r7, r0, 1
	sll   r7, r7, r5
	or    r3, r3, r7
	andfi r3, r3, B_PENDING, 1
	st    r3, 0(r2)
.out:
	done

ni_pclr:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	mfh   r5, H_SRC
	bne   r4, r5, .out
	andfi r3, r3, B_PENDING, 1
	st    r3, 0(r2)
.out:
	done

ni_iack:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	ext   r6, r3, ACK_POS, ACK_W
	addi  r6, r6, -1
	ins   r3, r6, ACK_POS, ACK_W
	bne   r6, r0, .st
	andfi r3, r3, B_PENDING, 1
.st:
	st    r3, 0(r2)
	done
`

// Bit-vector header fields.
const (
	BVPresPos, BVPresW   = 8, 32
	BVAckPos, BVAckW     = 40, 10
	BVOwnerPos, BVOwnerW = 50, 8
	// BVMaxNodes bounds the presence vector.
	BVMaxNodes = BVPresW
)
