package protocol

import (
	"fmt"
	"strconv"
	"strings"
)

// homeSource is the home side of every directory protocol in PP assembly:
// local and remote read/write misses, writebacks, replacement hints,
// invalidation fan-out and acknowledgment collection, the home's half of
// 3-hop forwarding with sharing writebacks and ownership transfers, and the
// NAK/retry races between writebacks and forwarded requests. The
// directory-free handlers it branches to (nak_pi, nak_net) and the rest of
// the requester and sharer side are sharedSource.
//
// The header fields every format has (DIRTY, PENDING, ACK, OWNER) are
// written inline. How a format records sharers is not: a line `@op args`
// is a directory operation, replaced by the text the format supplies for op
// (see format), with $1, $2 ... standing for the arguments:
//
//	@inval              invalidate every sharer except node r4; count in r9
//	@share              add node r4 to the sharer set
//	@reload_src         reload r4 from H_SRC (a format may leave it out)
//	@set_local          set the home's local-copy flag
//	@clear_local        clear it
//	@present N, T       set node N's presence bit (T scratch)
//	@absent N           clear node N's presence bit
//	@if_no_home_copy L  branch to L unless the home's processor has a copy
//	@rpl                the body of ni_rpl after the header load
//
// A format records the home's own copy either in a local-copy flag or in
// the home's presence bit, and expands the other pair of operations to
// nothing; the two pairs sit where each format has always made the update,
// which is not the same place in pi_getx_local and in ni_get's dirty-at-home
// path.
//
// Conventions:
//   - The inbox preprocesses headers: H_DIROFF holds the protocol-memory
//     byte offset of the directory header at the home node, or the home
//     node id for the pi_*_remote forwarding handlers.
//   - The outgoing header bank is initialized from the incoming header
//     (type and address carry over; destination defaults to the sender).
//   - r27 holds this node's id, loaded by the format's pp_init; a format may
//     keep more persistent registers in r24-r26.
//   - r2 is the directory header's offset and r3 the header itself.
//   - r28 is the subroutine link register; r1-r13 are handler scratch.
//   - Data-reply handlers always execute memrd: when the inbox already
//     issued the speculative read MAGIC coalesces the two, and with
//     speculation disabled this is where the access starts (Section 5.1).
const homeSource = `
; local read miss (PI GET, this node is home) ---------------------------------
pi_get_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	@set_local
	@present r27, r6
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

; local write miss (PI GETX, this node is home) -------------------------------
pi_getx_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_pi
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	add   r4, r27, r0
	@inval
	orfi  r3, r3, B_DIRTY, 1
	@set_local
	ins   r3, r27, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
	@present r27, r6
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

; local writeback and replacement hint (PI, this node is home) ----------------
pi_wb_local:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	mfh   r1, H_ADDR
	memwr r1
	bbc   r3, B_DIRTY, .out
	ext   r4, r3, OWNER_POS, OWNER_W
	bne   r4, r27, .out
	andfi r3, r3, B_DIRTY, 1
	@clear_local
	@absent r27
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
	@clear_local
	@absent r27
	st    r3, 0(r2)
.out:
	done

; read request at home from a remote node (NI GET) ----------------------------
ni_get:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r4, H_SRC
	@share
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
	@set_local                 ; our processor keeps the downgraded copy
	mfh   r4, H_SRC
	@share
	@present r27, r6
	st    r3, 0(r2)
	mfh   r4, H_SRC
	mth   H_DST, r4
	li    r5, M_PUT
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5            ; classifies as dirty-at-home
	send  NET|DATA
	done

; write request at home from a remote node (NI GETX) --------------------------
ni_getx:
	mfh   r2, H_DIROFF
	ld    r3, 0(r2)
	bbs   r3, B_PENDING, nak_net
	bbs   r3, B_DIRTY, .dirty
	mfh   r1, H_ADDR
	@if_no_home_copy .noloc
	li    r5, M_PIINVAL        ; invalidate our own processor's copy
	mth   H_TYPE, r5
	send  PI
	@clear_local               ; (a presence bit goes with the fan-out)
.noloc:
	mfh   r4, H_SRC
	@inval
	orfi  r3, r3, B_DIRTY, 1
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	ins   r3, r9, ACK_POS, ACK_W
	@present r4, r6
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
	@clear_local
	@absent r27
	mfh   r4, H_SRC
	ins   r3, r4, OWNER_POS, OWNER_W
	@present r4, r6
	st    r3, 0(r2)
	mth   H_DST, r4
	li    r5, M_PUTX
	mth   H_TYPE, r5
	addi  r5, r0, 1
	mth   H_AUX, r5
	send  NET|DATA
	done

; writeback and replacement hint at home from remote nodes --------------------
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
	@absent r4
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
	@rpl

; replies arriving at the home node -------------------------------------------
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
	@reload_src
	@share                     ; the old owner keeps a shared copy
	mfh   r4, H_REQ
	@share                     ; the reader joins the sharer set
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
	@absent r4                 ; ownership moves from the old owner ...
	mfh   r6, H_REQ
	ins   r3, r6, OWNER_POS, OWNER_W
	@present r6, r7            ; ... to the requester
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

// format is one directory format: the prelude its program starts with
// (pp_init and the subroutines its operations call) and the text of every
// directory operation homeSource names.
type format struct {
	prelude string
	ops     map[string]string
}

// expand replaces every `@op args` line of tmpl with f's text for op, $i
// standing for the i-th comma-separated argument. An operation f does not
// supply is an error.
func (f format) expand(tmpl string) (string, error) {
	var b strings.Builder
	b.Grow(2 * len(tmpl))
	for _, line := range strings.SplitAfter(tmpl, "\n") {
		code, _, _ := strings.Cut(line, ";")
		code = strings.TrimSpace(code)
		if !strings.HasPrefix(code, "@") {
			b.WriteString(line)
			continue
		}
		name, args := code[1:], ""
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name, args = name[:i], name[i+1:]
		}
		text, ok := f.ops[name]
		if !ok {
			return "", fmt.Errorf("unknown directory operation @%s", name)
		}
		for i, a := range strings.Split(args, ",") {
			text = strings.ReplaceAll(text, "$"+strconv.Itoa(i+1), strings.TrimSpace(a))
		}
		b.WriteString(text)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
