package protocol

// dynptr is the dynamic pointer allocation directory (Simoni's scheme,
// Section 3.3 of the paper): each header holds a LOCAL flag for the home's
// own processor and the head of a linked list of sharers threaded through
// the pointer pool; an exhausted pool sets OVFL and invalidations go out as
// a broadcast. The owner of a dirty line is only OWNER, never a list entry.
//
// Persistent registers, set up once by pp_init: r24 = free-list head
// (FreeHeadReg), r25 = pointer-pool base, r26 = NULLPTR, r27 = this node's
// id.
var dynptr = format{
	prelude: `
pp_init:
	ld    r24, G_FREEHEAD(r0)
	li    r25, PTRBASE
	li    r26, NULLPTR
	ld    r27, G_MYID(r0)
	done

; subroutine: insert node r4 into the sharer set of directory header r3
; (dirOff in r2 is NOT stored here; callers store). clobbers r5-r7.
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

; subroutine: invalidate every sharer of header r3 except node r4.
; H_ADDR must already be set in the outgoing header. Frees the list entries,
; clears the list/overflow state in r3, returns the invalidation count in
; r9. Clobbers r5-r7, r10-r13.
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
`,
	ops: map[string]string{
		"inval": "jal inval_sharers",
		"share": "jal alloc_insert",
		// Redundant where it is used (ni_swb: r4 == H_SRC after the owner
		// check), but dropping it would change the image.
		"reload_src":      "mfh r4, H_SRC",
		"set_local":       "orfi r3, r3, B_LOCAL, 1",
		"clear_local":     "andfi r3, r3, B_LOCAL, 1",
		"present":         "",
		"absent":          "",
		"if_no_home_copy": "bbc r3, B_LOCAL, $1",
		// A hint unlinks the sender's entry from the sharer list, if any, and
		// returns it to the free list.
		"rpl": `
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
	done`,
	},
}
