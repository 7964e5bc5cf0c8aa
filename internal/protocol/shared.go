package protocol

// sharedSource holds the handlers that never read or write a directory
// header: NAK tails, the requester's forwards of remote-address requests to
// their home, the dirty node's side of a 3-hop forward, invalidation at a
// sharer, and replies handed to the processor. They are the same under every
// directory format, so every program ends with this one text, after the
// home handlers (homeSource) expanded for its format.
//
// It names only message types, header fields and send flags, never a
// directory field or layout symbol (TestSharedSourceIsDirectoryFree).
// Where it lands in the image changes only absolute PCs: PP instruction
// fetch always hits and every label starts a basic block, so placement is
// cycle-neutral.
const sharedSource = `
; ---------------------------------------------------------------------------
; shared tails: negative acknowledgments
; ---------------------------------------------------------------------------
nak_pi:
	li    r5, M_NAK
	mth   H_TYPE, r5
	send  PI
	done
nak_net:
	li    r5, M_NAK
	mth   H_TYPE, r5
	mfh   r4, H_SRC
	mth   H_DST, r4
	send  NET
	done

; ---------------------------------------------------------------------------
; remote-address requests from the local processor: forward to home.
; H_DIROFF carries the home node id for these handlers.
; ---------------------------------------------------------------------------
pi_get_remote:
	mfh   r4, H_DIROFF
	mth   H_DST, r4
	send  NET
	done

pi_getx_remote:
	mfh   r4, H_DIROFF
	mth   H_DST, r4
	send  NET
	done

pi_wb_remote:
	mfh   r4, H_DIROFF
	mth   H_DST, r4
	send  NET|DATA
	done

pi_rpl_remote:
	mfh   r4, H_DIROFF
	mth   H_DST, r4
	send  NET
	done

; ---------------------------------------------------------------------------
; forwarded requests at the (believed) dirty node
; ---------------------------------------------------------------------------
ni_fwd_get:
	li    r5, M_PIDOWNGR
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, fwd_gone
	mfh   r4, H_REQ
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	addi  r5, r0, 3
	mth   H_AUX, r5            ; dirty + third-party source
	send  NET|DATA
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_SWB
	mth   H_TYPE, r5
	send  NET|DATA
	done

ni_fwd_getx:
	li    r5, M_PIFLUSH
	mth   H_TYPE, r5
	send  PI
	waitpc
	mfh   r6, H_PCKIND
	beq   r6, r0, fwd_gone
	mfh   r4, H_REQ
	mth   H_DST, r4
	li    r5, M_PUTX
	mth   H_TYPE, r5
	addi  r5, r0, 3
	mth   H_AUX, r5
	send  NET|DATA
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_XFER
	mth   H_TYPE, r5
	send  NET
	done

fwd_gone:
	; the line was already written back: clear the home's pending bit and
	; bounce the requester.
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PCLR
	mth   H_TYPE, r5
	send  NET
	mfh   r4, H_REQ
	mth   H_DST, r4
	li    r5, M_NAK
	mth   H_TYPE, r5
	send  NET
	done

; ---------------------------------------------------------------------------
; invalidation at a sharer
; ---------------------------------------------------------------------------
ni_inval:
	li    r5, M_PIINVAL
	mth   H_TYPE, r5
	send  PI
	li    r5, M_IACK
	mth   H_TYPE, r5
	send  NET                  ; destination defaults to the home (sender)
	done

; ---------------------------------------------------------------------------
; replies arriving at the requester: hand to the processor interface
; ---------------------------------------------------------------------------
ni_put:
	send  PI|DATA
	done

ni_putx:
	send  PI|DATA
	done

ni_nak:
	send  PI
	done
`
