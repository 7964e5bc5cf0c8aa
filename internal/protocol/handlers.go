package protocol

// handlerSource is the home side of the dynamic pointer allocation protocol
// in PP assembly: local and remote read/write misses, writebacks, replacement
// hints, invalidation fan-out and acknowledgment collection, the home's half
// of 3-hop forwarding with sharing writebacks and ownership transfers, and
// the NAK/retry races between writebacks and forwarded requests. The
// directory-free handlers it branches to (nak_pi, nak_net) and the rest of
// the requester and sharer side are sharedSource, appended by assemble.
//
// Conventions:
//   - The inbox preprocesses headers: H_DIROFF holds the protocol-memory
//     byte offset of the directory header at the home node, or the home
//     node id for the pi_*_remote forwarding handlers.
//   - The outgoing header bank is initialized from the incoming header
//     (type and address carry over; destination defaults to the sender).
//   - Persistent registers, set up once by pp_init: r24 = free-list head
//     (FreeHeadReg), r25 = pointer-pool base, r26 = NULLPTR, r27 = this
//     node's id.
//   - r28 is the subroutine link register; r1-r13 are handler scratch.
//   - Data-reply handlers always execute memrd: when the inbox already
//     issued the speculative read MAGIC coalesces the two, and with
//     speculation disabled this is where the access starts (Section 5.1).
const handlerSource = `
; ---------------------------------------------------------------------------
; boot
; ---------------------------------------------------------------------------
pp_init:
	ld    r24, G_FREEHEAD(r0)
	li    r25, PTRBASE
	li    r26, NULLPTR
	ld    r27, G_MYID(r0)
	done

; ---------------------------------------------------------------------------
; subroutine: insert node r4 into the sharer set of directory header r3
; (dirOff in r2 is NOT stored here; callers store). clobbers r5-r7.
; ---------------------------------------------------------------------------
alloc_insert:
	bne   r4, r27, .pool
	orfi  r3, r3, B_LOCAL, 1
	jr    r28
.pool:
	beq   r24, r26, .ovfl
	slli  r7, r24, 3
	add   r7, r7, r25
	ld    r6, 0(r7)            ; free entry (its NEXT links the free list)
	add   r5, r26, r0          ; new entry's next = NULL unless a list exists
	bbc   r3, B_LIST, .nolist
	ext   r5, r3, HEAD_POS, HEAD_W
.nolist:
	slli  r5, r5, NEXT_POS
	or    r5, r5, r4
	st    r5, 0(r7)
	ins   r3, r24, HEAD_POS, HEAD_W
	orfi  r3, r3, B_LIST, 1
	ext   r24, r6, NEXT_POS, NEXT_W
	jr    r28
.ovfl:
	orfi  r3, r3, B_OVFL, 1
	jr    r28

; ---------------------------------------------------------------------------
; subroutine: invalidate every sharer of header r3 except node r4.
; H_ADDR must already be set in the outgoing header. Frees the list entries,
; clears the list/overflow state in r3, returns the invalidation count in
; r9. Clobbers r5-r7, r10-r13.
; ---------------------------------------------------------------------------
inval_sharers:
	add   r9, r0, r0
	li    r7, M_INVAL
	mth   H_TYPE, r7
	bbs   r3, B_OVFL, .bcast
.walk:
	bbc   r3, B_LIST, .done
	ext   r5, r3, HEAD_POS, HEAD_W
.loop:
	slli  r7, r5, 3
	add   r7, r7, r25
	ld    r6, 0(r7)
	ext   r12, r6, NODE_POS, NODE_W
	ext   r13, r6, NEXT_POS, NEXT_W
	; free the entry: entry.next = free head; free head = entry
	slli  r10, r24, NEXT_POS
	st    r10, 0(r7)
	add   r24, r5, r0
	beq   r12, r4, .skip
	mth   H_DST, r12
	send  NET
	addi  r9, r9, 1
.skip:
	add   r5, r13, r0
	bne   r5, r26, .loop
	andfi r3, r3, B_LIST, 1
	andfi r3, r3, HEAD_POS, HEAD_W
.done:
	jr    r28
.bcast:
	; pool overflowed: invalidate all nodes except self and the requester,
	; then release whatever part of the list exists.
	ld    r11, G_NNODES(r0)
	add   r5, r0, r0
.bloop:
	beq   r5, r27, .bnext
	beq   r5, r4, .bnext
	mth   H_DST, r5
	send  NET
	addi  r9, r9, 1
.bnext:
	addi  r5, r5, 1
	bne   r5, r11, .bloop
	andfi r3, r3, B_OVFL, 1
	bbc   r3, B_LIST, .done
	ext   r5, r3, HEAD_POS, HEAD_W
.floop:
	slli  r7, r5, 3
	add   r7, r7, r25
	ld    r6, 0(r7)
	ext   r13, r6, NEXT_POS, NEXT_W
	slli  r10, r24, NEXT_POS
	st    r10, 0(r7)
	add   r24, r5, r0
	add   r5, r13, r0
	bne   r5, r26, .floop
	andfi r3, r3, B_LIST, 1
	andfi r3, r3, HEAD_POS, HEAD_W
	jr    r28

; ---------------------------------------------------------------------------
; local read miss (PI GET, this node is home)
; ---------------------------------------------------------------------------
pi_get_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	orfi  r3, r3, B_LOCAL, 1
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
	beq   r4, r27, nak_pi      ; our own writeback is in flight: retry
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r27
	li    r5, M_FWDGET
	mth   H_TYPE, r5
	send  NET
	done

; ---------------------------------------------------------------------------
; local write miss (PI GETX, this node is home)
; ---------------------------------------------------------------------------
pi_getx_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	add   r4, r27, r0
	jal   inval_sharers
	orfi  r3, r3, B_DIRTY, 1
	orfi  r3, r3, B_LOCAL, 1
	ins   r3, r27, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
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

; ---------------------------------------------------------------------------
; local writeback and replacement hint (PI, this node is home)
; ---------------------------------------------------------------------------
pi_wb_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	bne   r4, r27, .out
	andfi r3, r3, B_DIRTY, 1
	andfi r3, r3, B_LOCAL, 1
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
	andfi r3, r3, B_LOCAL, 1
	st    r3, 0(r2)
.out:
	done

; ---------------------------------------------------------------------------
; read request at home from a remote node (NI GET)
; ---------------------------------------------------------------------------
ni_get:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r4, H_SRC
	jal   alloc_insert
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
	beq   r4, r6, nak_net      ; requester's own writeback is in flight
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r6
	li    r5, M_FWDGET
	mth   H_TYPE, r5
	send  NET
	done
.local:
	; dirty in our own processor cache: retrieve, downgrade, write back
	li    r5, M_PIDOWNGR
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, nak_net      ; writeback raced the intervention
	mfh   r1, H_ADDR
	memwr r1
	andfi r3, r3, B_DIRTY, 1
	orfi  r3, r3, B_LOCAL, 1   ; our processor keeps the downgraded copy
	mfh   r4, H_SRC
	jal   alloc_insert
	st    r3, 0(r2)
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5            ; classifies as dirty-at-home
	send  NET|DATA
	done

; ---------------------------------------------------------------------------
; write request at home from a remote node (NI GETX)
; ---------------------------------------------------------------------------
ni_getx:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	bbc   r3, B_LOCAL, .noloc
	li    r5, M_PIINVAL        ; invalidate our own processor's copy
	mth   H_TYPE, r5
	send  PI
	andfi r3, r3, B_LOCAL, 1
.noloc:
	mfh   r4, H_SRC
	jal   inval_sharers
	orfi  r3, r3, B_DIRTY, 1
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
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
	beq   r4, r6, nak_net      ; requester's own writeback is in flight
	orfi  r3, r3, B_PENDING, 1
	st    r3, 0(r2)
	mth   H_DST, r4
	mth   H_REQ, r6
	li    r5, M_FWDGETX
	mth   H_TYPE, r5
	send  NET
	done
.local:
	; dirty in our own cache: flush it, hand ownership to the requester
	li    r5, M_PIFLUSH
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, nak_net
	mfh   r1, H_ADDR
	memwr r1
	andfi r3, r3, B_LOCAL, 1
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	st    r3, 0(r2)
	mth   H_DST, r4
	li    r5, M_PUTX
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5
	send  NET|DATA
	done

; ---------------------------------------------------------------------------
; writeback and replacement hint at home from remote nodes
; ---------------------------------------------------------------------------
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
	mfh   r4, H_SRC
	bbc   r3, B_LIST, .out
	ext   r5, r3, HEAD_POS, HEAD_W
	slli  r7, r5, 3
	add   r7, r7, r25
	ld    r6, 0(r7)
	ext   r12, r6, NODE_POS, NODE_W
	bne   r12, r4, .scan
	; unlink the head entry
	ext   r13, r6, NEXT_POS, NEXT_W
	beq   r13, r26, .last
	ins   r3, r13, HEAD_POS, HEAD_W
	j     .free
.last:
	andfi r3, r3, B_LIST, 1
	andfi r3, r3, HEAD_POS, HEAD_W
.free:
	slli  r10, r24, NEXT_POS
	st    r10, 0(r7)
	add   r24, r5, r0
	st    r3, 0(r2)
.out:
	done
.scan:
	ext   r13, r6, NEXT_POS, NEXT_W
	beq   r13, r26, .out
	slli  r10, r13, 3
	add   r10, r10, r25
	ld    r12, 0(r10)
	ext   r9, r12, NODE_POS, NODE_W
	beq   r9, r4, .unlink
	add   r7, r10, r0
	add   r6, r12, r0
	j     .scan
.unlink:
	ext   r9, r12, NEXT_POS, NEXT_W
	ins   r6, r9, NEXT_POS, NEXT_W
	st    r6, 0(r7)
	slli  r9, r24, NEXT_POS
	st    r9, 0(r10)
	add   r24, r13, r0
	done

; ---------------------------------------------------------------------------
; replies arriving at the home node
; ---------------------------------------------------------------------------
ni_swb:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	mfh   r5, H_SRC
	bne   r4, r5, .out
	andfi r3, r3, B_DIRTY, 2   ; clears DIRTY and PENDING together
	mfh   r4, H_SRC
	jal   alloc_insert         ; the old owner keeps a shared copy
	mfh   r4, H_REQ
	jal   alloc_insert         ; the reader joins the sharer set
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
	mfh   r6, H_REQ
	ins   r3, r6, OWNER_POS, OWNER_W
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
