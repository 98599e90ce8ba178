package asmcheck

import (
	"slices"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Control-flow recovery: recursive-traversal decoding from the root
// symbols. BL targets become new functions; within a function,
// reachable instructions are partitioned into basic blocks. Literal
// pools and data sections are never decoded because well-formed code
// never reaches them — reaching one is exactly the DECODE_UNKNOWN /
// CFG_FALLTHROUGH defect the checker exists to catch.

type instr struct {
	armv6m.Instr
	Line       int
	LoopBound  int
	LoadRegion string // "asmcheck: load" annotation ("" when absent)
}

type block struct {
	start  uint32
	instrs []instr // a subslice of the function's address-sorted instructions
	succs  []*block
	preds  []*block
}

// last returns the block's final instruction.
func (b *block) last() *instr { return &b.instrs[len(b.instrs)-1] }

type fn struct {
	addr      uint32
	name      string
	entry     *block
	blockList []*block // deterministic order (by start address)
	callSites []uint32 // BL instruction addresses
	callees   []uint32 // BL target addresses (parallel to callSites)
}

// cfgSlot is buildFn's state for one halfword of the program image.
type cfgSlot struct {
	dec    int32 // 1 + index in checker.dec of the instruction decoded here; 0 if none
	block  int32 // 1 + index of the block starting here; 0 if none
	leader bool
}

// decoded is one instruction of the function being recovered, with its
// at most two intra-function successors.
type decoded struct {
	in instr
	ss [2]uint32
	n  int
}

// slot maps an instruction address to its halfword slot in the program
// image; ok is false for an odd address or one whose first halfword is
// not in the image. Exactly the addresses with a slot decode.
func (ck *checker) slot(addr uint32) (int, bool) {
	off := int64(addr) - int64(ck.p.Base)
	if addr&1 != 0 || off < 0 || off+2 > int64(len(ck.p.Code)) {
		return 0, false
	}
	return int(off >> 1), true
}

// decodeAt decodes one instruction and attaches its source metadata.
func (ck *checker) decodeAt(addr uint32) (instr, bool) {
	if _, ok := ck.slot(addr); !ok {
		return instr{}, false
	}
	off := int64(addr) - int64(ck.p.Base)
	op := uint16(ck.p.Code[off]) | uint16(ck.p.Code[off+1])<<8
	var lo uint16
	if off+4 <= int64(len(ck.p.Code)) {
		lo = uint16(ck.p.Code[off+2]) | uint16(ck.p.Code[off+3])<<8
	}
	in := instr{Instr: armv6m.Decode(addr, op, lo)}
	if m, ok := ck.p.InstrAt(addr); ok {
		in.Line = m.Line
		in.LoopBound = m.LoopBound
		in.LoadRegion = m.LoadRegion
	}
	return in, true
}

// succsOf lists the successor addresses of in within its function (a
// conditional branch's target first), recording control-flow violations
// for unanalyzable transfers. BL falls through (the call edge is handled
// interprocedurally).
func (ck *checker) succsOf(f *fn, in *instr) (ss [2]uint32, n int) {
	next := in.Addr + uint32(in.Size)
	fallthrough_ := func() {
		if next >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "execution falls past the end of the code region (0x%08x)", ck.cfg.CodeLimit)
			return
		}
		ss[n] = next
		n++
	}
	branch := func(target uint32) {
		if target < ck.p.Base || target >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "branch target 0x%08x outside the code region", target)
			return
		}
		ss[n] = target
		n++
	}
	switch in.Kind {
	case armv6m.KindBranch:
		branch(in.Target)
	case armv6m.KindBranchCond:
		branch(in.Target)
		fallthrough_()
	case armv6m.KindBL:
		fallthrough_()
	case armv6m.KindBX, armv6m.KindBKPT, armv6m.KindPop:
		if in.Kind == armv6m.KindPop && !in.Terminator() {
			fallthrough_()
		}
	case armv6m.KindBLX:
		ck.violate(CodeCFGIndirect, f, in.Addr, "indirect call (blx) is not analyzable")
	case armv6m.KindSVC, armv6m.KindUDF:
		ck.violate(CodeCFGTrap, f, in.Addr, "reachable trap instruction (%s)", in.Text)
	case armv6m.KindUnknown:
		ck.violate(CodeDecodeUnknown, f, in.Addr, "reachable halfword 0x%04x does not decode (data in the instruction stream?)", in.Op)
	case armv6m.KindALU:
		if in.WritesPC {
			ck.violate(CodeCFGIndirect, f, in.Addr, "PC-writing ALU instruction (%s) is not analyzable", in.Text)
			return
		}
		fallthrough_()
	default:
		fallthrough_()
	}
	return
}

// discover builds CFGs for the given roots and, transitively, every BL
// target they reach.
func (ck *checker) discover(roots []uint32) {
	queue := append([]uint32{}, roots...)
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		if _, done := ck.funcs[addr]; done {
			continue
		}
		f := ck.buildFn(addr)
		ck.funcs[addr] = f
		ck.funcOrder = append(ck.funcOrder, addr)
		queue = append(queue, f.callees...)
	}
}

// markLeader makes addr a block leader. Leaders outside the image are
// dropped: nothing there decodes, so no block can start at them.
func (ck *checker) markLeader(addr uint32) {
	if s, ok := ck.slot(addr); ok {
		ck.slots[s].leader = true
	}
}

// buildFn decodes the function at addr and partitions it into blocks.
// It works in the checker's per-halfword slot table: a depth-first walk
// from addr decodes each reachable instruction once and marks block
// leaders, one sort puts the decoded addresses in order, and one pass
// over them cuts the blocks, each a subslice of the sorted array. Every
// slot the walk touches is an address it decoded, so clearing those
// leaves the table zero for the next function.
func (ck *checker) buildFn(addr uint32) *fn {
	f := &fn{addr: addr, name: ck.funcName(addr)}
	if _, ok := ck.slot(addr); !ok {
		ck.violate(CodeDecodeUnknown, f, addr, "function entry outside the program image")
		return f
	}
	if ck.slots == nil {
		// The decode buffer starts at the assembled instruction count,
		// so recovering the image's largest function rarely grows it.
		ck.slots = make([]cfgSlot, len(ck.p.Code)/2)
		ck.dec = make([]decoded, 0, len(ck.p.Instrs))
	}
	ck.markLeader(addr)
	dec := ck.dec[:0]
	work := append(ck.work[:0], addr)
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		s, ok := ck.slot(a)
		if !ok {
			ck.violate(CodeDecodeUnknown, f, a, "control flow leaves the program image")
			continue
		}
		if ck.slots[s].dec != 0 {
			continue
		}
		in, _ := ck.decodeAt(a)
		dec = append(dec, decoded{in: in})
		d := &dec[len(dec)-1]
		ck.slots[s].dec = int32(len(dec))
		d.ss, d.n = ck.succsOf(f, &d.in)
		if in.Kind == armv6m.KindBL {
			f.callSites = append(f.callSites, a)
			f.callees = append(f.callees, in.Target)
		}
		// Any successor set other than plain fallthrough makes each
		// successor a block leader.
		if d.n != 1 || d.ss[0] != a+uint32(in.Size) {
			for _, t := range d.ss[:d.n] {
				ck.markLeader(t)
			}
		}
		work = append(work, d.ss[:d.n]...)
	}

	addrs := ck.addrs[:0]
	for i := range dec {
		addrs = append(addrs, dec[i].in.Addr)
	}
	slices.Sort(addrs)

	instrs := make([]instr, len(addrs))
	var blocks []block
	open := false // the previous instruction's only successor is the next address
	for i, a := range addrs {
		s, _ := ck.slot(a)
		d := &dec[ck.slots[s].dec-1]
		instrs[i] = d.in
		// A new block starts at a leader or where the previous
		// instruction does not fall through to this one.
		if !open || ck.slots[s].leader || instrs[i-1].Addr+uint32(instrs[i-1].Size) != a {
			blocks = append(blocks, block{start: a, instrs: instrs[i:i]})
			ck.slots[s].block = int32(len(blocks))
		}
		cur := &blocks[len(blocks)-1]
		cur.instrs = cur.instrs[:len(cur.instrs)+1]
		open = d.n == 1 && d.ss[0] == a+uint32(d.in.Size)
	}

	// Wire edges from each block's final instruction. A successor that
	// is not a block start (decoded mid-block) gets no edge: the leader
	// rule prevents it, so this is a safety net. One counting pass sizes
	// every successor and predecessor list, carved from one array.
	blockAt := func(a uint32) int {
		if s, ok := ck.slot(a); ok {
			return int(ck.slots[s].block) - 1
		}
		return -1
	}
	lastOf := func(b *block) *decoded {
		s, _ := ck.slot(b.last().Addr)
		return &dec[ck.slots[s].dec-1]
	}
	f.blockList = make([]*block, len(blocks))
	npred := make([]int, len(blocks))
	nedge := 0
	for k := range blocks {
		f.blockList[k] = &blocks[k]
		d := lastOf(&blocks[k])
		for _, a := range d.ss[:d.n] {
			if t := blockAt(a); t >= 0 {
				npred[t]++
				nedge++
			}
		}
	}
	edges := make([]*block, 2*nedge)
	succs, preds := edges[:nedge], edges[nedge:]
	for k, n := range npred {
		blocks[k].preds, preds = preds[:0:n], preds[n:]
	}
	for _, b := range f.blockList {
		d := lastOf(b)
		n := 0
		for _, a := range d.ss[:d.n] {
			if t := blockAt(a); t >= 0 {
				succs[n] = &blocks[t]
				n++
				blocks[t].preds = append(blocks[t].preds, b)
			}
		}
		b.succs, succs = succs[:n:n], succs[n:]
	}
	f.entry = &blocks[blockAt(addr)]

	// Every touched slot is a decoded address: leaders inside the image
	// are all pushed, hence decoded, and blocks start at decoded ones.
	for _, a := range addrs {
		s, _ := ck.slot(a)
		ck.slots[s] = cfgSlot{}
	}
	ck.dec, ck.work, ck.addrs = dec, work, addrs
	return f
}

// crossFunctionEdges flags control transfers (branches or fallthrough)
// that land on another function's entry: a missing return falls through
// into the next kernel, and a tail jump bypasses the AAPCS contract.
func (ck *checker) crossFunctionEdges() {
	for _, addr := range ck.funcOrder {
		f := ck.funcs[addr]
		for _, b := range f.blockList {
			for _, s := range b.succs {
				if s.start != f.addr {
					if other, isFn := ck.funcs[s.start]; isFn {
						ck.violate(CodeCFGFallthrough, f, b.last().Addr,
							"control flow crosses into function %s without a call", other.name)
					}
				}
			}
		}
	}
}
