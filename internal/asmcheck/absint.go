package asmcheck

import (
	"fmt"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Abstract interpretation over the recovered CFG. The value domain per
// register is {unknown, constant, pointer-into-region, entry-value};
// constants seeded from MOVS/ADR/literal-pool loads are followed through
// loads of flash-resident data (descriptors baked into the image), so a
// kernel analyzed in the context of a concrete descriptor pointer
// resolves its buffer pointers to actual SRAM constants. The stack is
// modeled explicitly: a depth counter plus one abstract value per pushed
// word, which is what makes the AAPCS callee-saved check exact (a POP
// must restore the very entry values the PUSH saved).
//
// Soundness caveats (documented in docs/ASMCHECK.md): pointer
// arithmetic is assumed region-preserving, and stores through derived
// SRAM pointers are assumed not to alias the stack frame. Both hold for
// every generated kernel (linear buffer walks, no SP-derived pointers),
// and the emulator's dynamic bus checks back them up at test time.

type regionID uint8

const (
	regionNone regionID = iota
	regionFlash
	regionSRAM
	regionPeriph
)

func (r regionID) String() string {
	switch r {
	case regionFlash:
		return "flash"
	case regionSRAM:
		return "sram"
	case regionPeriph:
		return "periph"
	default:
		return "unmapped"
	}
}

type vkind uint8

const (
	vUnknown vkind = iota
	vConst         // c holds the exact value
	vPtr           // somewhere inside region r
	vEntry         // the value register e held at function entry
)

type absval struct {
	k vkind
	c uint32
	r regionID
	e int8
}

func unknown() absval          { return absval{k: vUnknown} }
func konst(c uint32) absval    { return absval{k: vConst, c: c} }
func ptr(r regionID) absval    { return absval{k: vPtr, r: r} }
func entryVal(reg int8) absval { return absval{k: vEntry, e: reg} }

// regionOf is the region a value certainly points into, or regionNone.
func (ck *checker) regionOf(v absval) regionID {
	switch v.k {
	case vConst:
		return ck.region(v.c)
	case vPtr:
		return v.r
	}
	return regionNone
}

// join merges two abstract values (least upper bound).
func (ck *checker) join(a, b absval) absval {
	if a == b {
		return a
	}
	ra, rb := ck.regionOf(a), ck.regionOf(b)
	if ra != regionNone && ra == rb {
		return ptr(ra)
	}
	return unknown()
}

// state is the abstract machine state at one program point.
type state struct {
	regs  [16]absval // index 13 (SP) is tracked via depth, 15 unused
	depth int        // bytes below the function-entry SP (always a multiple of 4)
	slots []absval   // slots[i] = word at entrySP - 4*(i+1)
}

func (s *state) clone() *state {
	c := *s
	c.slots = append([]absval(nil), s.slots...)
	return &c
}

// joinInto merges src into dst, reporting whether dst changed. Depth
// mismatch is a push/pop imbalance; the caller handles it.
func (ck *checker) joinInto(dst, src *state) (changed, depthOK bool) {
	if dst.depth != src.depth {
		return false, false
	}
	for i := range dst.regs {
		if j := ck.join(dst.regs[i], src.regs[i]); j != dst.regs[i] {
			dst.regs[i] = j
			changed = true
		}
	}
	for i := range dst.slots {
		if j := ck.join(dst.slots[i], src.slots[i]); j != dst.slots[i] {
			dst.slots[i] = j
			changed = true
		}
	}
	return changed, true
}

// ctxKey identifies one analysis context: a function entry plus the
// abstract r0 at entry (concrete descriptor pointer or unknown).
type ctxKey struct {
	addr  uint32
	hasR0 bool
	r0    uint32
}

func (k ctxKey) String() string {
	if k.hasR0 {
		return fmt.Sprintf("0x%08x(r0=0x%08x)", k.addr, k.r0)
	}
	return fmt.Sprintf("0x%08x", k.addr)
}

// callSite records one BL with enough context to bound the callee.
type callSite struct {
	at     uint32 // BL address
	depth  int    // caller stack depth at the call
	callee ctxKey
}

// ctxInfo is the per-context analysis result.
type ctxInfo struct {
	key      ctxKey
	maxDepth int
	calls    []callSite
	callSeen map[string]bool

	// memoized interprocedural stack bound (guarded by stackDone)
	stackMemo  int
	stackDone  bool
	stackOnDFS bool
}

// analyzeContexts runs the abstract interpreter over every (function,
// r0) context reachable from the roots.
func (ck *checker) analyzeContexts(rootAddrs, isrAddrs []uint32) {
	var queue []ctxKey
	enqueue := func(k ctxKey) *ctxInfo {
		if ci, ok := ck.ctxs[k]; ok {
			return ci
		}
		ci := &ctxInfo{key: k, callSeen: make(map[string]bool)}
		ck.ctxs[k] = ci
		ck.ctxOrder = append(ck.ctxOrder, k)
		queue = append(queue, k)
		return ci
	}
	for _, a := range append(append([]uint32{}, rootAddrs...), isrAddrs...) {
		enqueue(ctxKey{addr: a})
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		ci := ck.ctxs[k]
		f := ck.funcs[k.addr]
		if f == nil || f.entry == nil {
			continue
		}
		ck.interp(f, ci)
		for _, c := range ci.calls {
			enqueue(c.callee)
		}
	}
}

// interp is the per-context fixpoint.
func (ck *checker) interp(f *fn, ci *ctxInfo) {
	ent := &state{}
	for i := 0; i <= 12; i++ {
		ent.regs[i] = entryVal(int8(i))
	}
	ent.regs[14] = entryVal(14)
	if ci.key.hasR0 {
		ent.regs[0] = konst(ci.key.r0)
	}

	in := map[*block]*state{f.entry: ent}
	work := []*block{f.entry}
	inWork := map[*block]bool{f.entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		st := in[b].clone()
		alive := true
		for i := range b.instrs {
			if !ck.exec(f, ci, &b.instrs[i], st) {
				alive = false
				break
			}
		}
		if !alive {
			continue
		}
		for _, s := range b.succs {
			if in[s] == nil {
				in[s] = st.clone()
			} else {
				changed, depthOK := ck.joinInto(in[s], st)
				if !depthOK {
					ck.violate(CodeStackImbalance, f, s.start,
						"stack depth disagrees between paths joining here (%d vs %d bytes)", in[s].depth, st.depth)
					continue
				}
				if !changed {
					continue
				}
			}
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
}

// bumpDepth grows/shrinks the modeled stack, tracking the high-water
// mark. newSlots fill with unknown (memory below SP is garbage).
func (ci *ctxInfo) setDepth(st *state, depth int) {
	st.depth = depth
	for len(st.slots) < depth/4 {
		st.slots = append(st.slots, unknown())
	}
	st.slots = st.slots[:depth/4]
	if depth > ci.maxDepth {
		ci.maxDepth = depth
	}
}

// slotIndex maps a byte offset below the entry SP to a slot index.
// Offset x (bytes below entry SP, x >= 4) lives at slots[x/4-1].
func slotIndex(below int) int { return below/4 - 1 }

// arith models addition/subtraction over abstract values.
func (ck *checker) arith(a, b absval, sub bool) absval {
	if a.k == vConst && b.k == vConst {
		if sub {
			return konst(a.c - b.c)
		}
		return konst(a.c + b.c)
	}
	if ra := ck.regionOf(a); ra != regionNone {
		if !sub || b.k == vConst {
			// Pointer arithmetic is assumed region-preserving (see the
			// package caveats): base plus an index, or minus a constant.
			return ptr(ra)
		}
		return unknown()
	}
	if b.k == vPtr && !sub {
		// Only a proven pointer propagates its region from the right
		// operand: a plain constant must not (small integers would
		// otherwise classify as flash via the boot alias at 0).
		return ptr(b.r)
	}
	return unknown()
}

// operand resolves a register operand, treating SP reads as a pointer
// into SRAM (the stack lives at the top of SRAM).
func (st *state) operand(r int8) absval {
	if r == 13 {
		return ptr(regionSRAM)
	}
	return st.regs[r]
}

// checkMem validates one memory access of the given width. Returns the
// region when provable, and records the classification into ck.mems
// (the certificate's per-access facts).
func (ck *checker) checkMem(f *fn, ci *ctxInfo, in *instr, addr absval, width int, store bool) regionID {
	verb := "load"
	if store {
		verb = "store"
	}
	var r regionID
	switch addr.k {
	case vConst:
		r = ck.region(addr.c)
		if r == regionNone {
			ck.violate(CodeMemUnmapped, f, in.Addr, "%s targets 0x%08x, outside flash and SRAM", verb, addr.c)
			break
		}
		if addr.c%uint32(width) != 0 {
			ck.violate(CodeMemUnaligned, f, in.Addr, "%d-byte %s at misaligned address 0x%08x", width, verb, addr.c)
		}
		if r == regionPeriph && width != 4 {
			ck.violate(CodeMemUnaligned, f, in.Addr, "%d-byte %s in the word-only peripheral window at 0x%08x", width, verb, addr.c)
		}
		if store && r == regionFlash {
			ck.violate(CodeMemWriteFlash, f, in.Addr, "store to flash address 0x%08x", addr.c)
		}
	case vPtr:
		if store && addr.r == regionFlash {
			ck.violate(CodeMemWriteFlash, f, in.Addr, "store through a flash-derived pointer")
		}
		r = addr.r
	default:
		if store {
			if ck.cfg.Strict {
				ck.violate(CodeMemUnproven, f, in.Addr, "store address cannot be proven safe (value unknown at this point)")
			}
		} else if hinted := annotatedRegion(in.LoadRegion); hinted != regionNone {
			// The kernel author declared the region ("asmcheck: load").
			// The claim is trusted here but not blindly: checked
			// execution re-verifies it on every run through the
			// per-retire bus-counter deltas, so a wrong annotation
			// fails loudly the first time the load executes. Stores
			// never take this path — write safety stays proven.
			r = hinted
		} else {
			ck.unprovenLoads++
		}
	}
	ck.noteMem(in.Addr, r, store)
	return r
}

// annotatedRegion maps an "asmcheck: load" annotation to its region.
func annotatedRegion(s string) regionID {
	switch s {
	case "flash":
		return regionFlash
	case "sram":
		return regionSRAM
	case "periph":
		return regionPeriph
	}
	return regionNone
}

// loadValue models the result of a load: flash-resident constants (the
// descriptors and tables baked into the image) read through to their
// actual bytes; everything else is runtime state.
func (ck *checker) loadValue(addr absval, width int, signed bool) absval {
	if addr.k == vConst {
		if v, ok := ck.readMem(addr.c, width, signed); ok {
			return konst(v)
		}
	}
	return unknown()
}

// atReturn applies the AAPCS return contract: balanced stack, preserved
// r4-r7, and (for bx) the entry lr as the return address.
func (ck *checker) atReturn(f *fn, in *instr, st *state) {
	if st.depth != 0 {
		ck.violate(CodeStackImbalance, f, in.Addr, "returns with %d bytes still pushed", st.depth)
	}
	for r := int8(4); r <= 7; r++ {
		v := st.regs[r]
		if !(v.k == vEntry && v.e == r) {
			ck.violate(CodeAAPCSClobber, f, in.Addr, "callee-saved r%d is not restored to its entry value at return", r)
		}
	}
}

// exec interprets one instruction, mutating st. It returns false when
// execution does not continue to the block's successors (returns,
// halts, and unrecoverable modeling failures).
func (ck *checker) exec(f *fn, ci *ctxInfo, in *instr, st *state) bool {
	switch in.Kind {
	case armv6m.KindALU:
		if in.WritesPC {
			return false // CFG stage already flagged it
		}
		if in.Rd == 13 {
			ck.violate(CodeStackSP, f, in.Addr, "SP written by %q; only push/pop/add sp/sub sp are analyzable", in.Text)
			return false
		}
		var v absval
		switch in.Alu {
		case armv6m.AluConst:
			v = konst(uint32(in.Imm))
		case armv6m.AluMov:
			v = st.operand(in.Rm)
		case armv6m.AluAdd, armv6m.AluSub:
			a := st.operand(in.Rn)
			b := konst(uint32(in.Imm))
			if in.Rm >= 0 {
				b = st.operand(in.Rm)
			}
			v = ck.arith(a, b, in.Alu == armv6m.AluSub)
		default:
			v = unknown()
		}
		st.regs[in.Rd] = v
		return true

	case armv6m.KindCompare, armv6m.KindHint, armv6m.KindCPS:
		return true

	case armv6m.KindBKPT:
		return false // clean halt

	case armv6m.KindAddSP:
		nd := st.depth - int(in.Imm)
		if nd < 0 {
			ck.violate(CodeStackImbalance, f, in.Addr, "SP raised %d bytes above the function entry", -nd)
			return false
		}
		ci.setDepth(st, nd)
		return true

	case armv6m.KindLoad:
		var addr absval
		switch {
		case in.Rn == 15: // literal pool
			addr = konst(in.Target)
		case in.Rn == 13: // own frame
			off := int(in.Imm)
			below := st.depth - off
			if below >= 4 && slotIndex(below) < len(st.slots) {
				st.regs[in.Rd] = st.slots[slotIndex(below)]
			} else {
				st.regs[in.Rd] = unknown() // caller frame or unmodeled
			}
			return true
		default:
			base := st.operand(in.Rn)
			idx := konst(uint32(in.Imm))
			if in.Rm >= 0 {
				idx = st.operand(in.Rm)
			}
			addr = ck.arith(base, idx, false)
		}
		ck.checkMem(f, ci, in, addr, int(in.MemWidth), false)
		st.regs[in.Rd] = ck.loadValue(addr, int(in.MemWidth), in.Signed)
		return true

	case armv6m.KindStore:
		if in.Rn == 13 {
			off := int(in.Imm)
			below := st.depth - off
			if below >= 4 && slotIndex(below) < len(st.slots) {
				st.slots[slotIndex(below)] = st.regs[in.Rd]
			} else {
				ck.violate(CodeStackImbalance, f, in.Addr, "SP-relative store at offset %d lands outside the current frame (depth %d)", off, st.depth)
			}
			return true
		}
		base := st.operand(in.Rn)
		idx := konst(uint32(in.Imm))
		if in.Rm >= 0 {
			idx = st.operand(in.Rm)
		}
		addr := ck.arith(base, idx, false)
		ck.checkMem(f, ci, in, addr, int(in.MemWidth), true)
		return true

	case armv6m.KindLoadMulti:
		base := st.operand(in.Rn)
		ck.checkMem(f, ci, in, base, 4, false)
		n := 0
		rnInList := false
		for r := int8(0); r < 8; r++ {
			if in.RegList&(1<<uint(r)) == 0 {
				continue
			}
			a := ck.arith(base, konst(uint32(4*n)), false)
			st.regs[r] = ck.loadValue(a, 4, false)
			if r == in.Rn {
				rnInList = true
			}
			n++
		}
		if !rnInList {
			st.regs[in.Rn] = ck.arith(base, konst(uint32(4*n)), false)
		}
		return true

	case armv6m.KindStoreMulti:
		base := st.operand(in.Rn)
		ck.checkMem(f, ci, in, base, 4, true)
		n := in.RegCount()
		st.regs[in.Rn] = ck.arith(base, konst(uint32(4*n)), false)
		return true

	case armv6m.KindPush:
		n := in.RegCount()
		old := st.depth
		ci.setDepth(st, old+4*n)
		j := 0 // j-th pushed register, ascending; lowest register at lowest address
		for r := int8(0); r < 16; r++ {
			if in.RegList&(1<<uint(r)) == 0 {
				continue
			}
			below := old + 4*(n-j) // bytes below entry SP of this word
			st.slots[slotIndex(below)] = st.regs[r]
			j++
		}
		return true

	case armv6m.KindPop:
		n := in.RegCount()
		if st.depth < 4*n {
			ck.violate(CodeStackImbalance, f, in.Addr, "pop of %d registers underflows the frame (depth %d bytes)", n, st.depth)
			return false
		}
		j := 0
		isReturn := in.RegList&(1<<15) != 0
		for r := int8(0); r < 16; r++ {
			if in.RegList&(1<<uint(r)) == 0 {
				continue
			}
			below := st.depth - 4*j
			v := st.slots[slotIndex(below)]
			if r == 15 {
				lr := v
				if !(lr.k == vEntry && lr.e == 14) {
					ck.violate(CodeAAPCSLR, f, in.Addr, "popped return address is not the entry lr (was lr saved by the push?)")
				}
			} else {
				st.regs[r] = v
			}
			j++
		}
		ci.setDepth(st, st.depth-4*n)
		if isReturn {
			ck.atReturn(f, in, st)
			return false
		}
		return true

	case armv6m.KindBX:
		v := st.operand(in.Rm)
		if in.Rm == 14 || (v.k == vEntry && v.e == 14) {
			if in.Rm == 14 && !(st.regs[14].k == vEntry && st.regs[14].e == 14) {
				ck.violate(CodeAAPCSLR, f, in.Addr, "bx lr with a clobbered lr (not the entry return address)")
			}
			ck.atReturn(f, in, st)
			return false
		}
		ck.violate(CodeCFGIndirect, f, in.Addr, "bx through %s whose value is not the entry lr", in.Text)
		return false

	case armv6m.KindBL:
		callee := ctxKey{addr: in.Target}
		if r0 := st.regs[0]; r0.k == vConst {
			callee = ctxKey{addr: in.Target, hasR0: true, r0: r0.c}
		}
		key := fmt.Sprintf("%08x>%s", in.Addr, callee)
		if !ci.callSeen[key] {
			ci.callSeen[key] = true
			ci.calls = append(ci.calls, callSite{at: in.Addr, depth: st.depth, callee: callee})
		}
		// Per this repository's convention r0-r3, r8-r12, and lr are
		// caller-saved scratch across calls; r4-r7 and SP are preserved
		// (which the callee's own analysis enforces).
		for _, r := range []int8{0, 1, 2, 3, 8, 9, 10, 11, 12, 14} {
			st.regs[r] = unknown()
		}
		return true

	case armv6m.KindBranch, armv6m.KindBranchCond:
		return true // block edges carry the control flow

	default: // BLX, SVC, UDF, unknown: flagged at CFG stage
		return false
	}
}
