package asmcheck

import (
	"fmt"
	"slices"
	"sort"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// The map-based CFG builder that buildFn replaced, kept as the oracle
// for TestCFGMatchesOracle and FuzzCheck. oracleBuildFn and
// oracleSuccsOf are the former buildFn and succsOf verbatim, except
// that the block index is a local map (fn no longer carries one).

// oracleSuccsOf lists the successor addresses of in within its function,
// recording control-flow violations for unanalyzable transfers. BL falls
// through (the call edge is handled interprocedurally).
func (ck *checker) oracleSuccsOf(f *fn, in *instr) []uint32 {
	next := in.Addr + uint32(in.Size)
	fallthrough_ := func() []uint32 {
		if next >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "execution falls past the end of the code region (0x%08x)", ck.cfg.CodeLimit)
			return nil
		}
		return []uint32{next}
	}
	branch := func(target uint32) []uint32 {
		if target < ck.p.Base || target >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "branch target 0x%08x outside the code region", target)
			return nil
		}
		return []uint32{target}
	}
	switch in.Kind {
	case armv6m.KindBranch:
		return branch(in.Target)
	case armv6m.KindBranchCond:
		return append(branch(in.Target), fallthrough_()...)
	case armv6m.KindBL:
		return fallthrough_()
	case armv6m.KindBX, armv6m.KindBKPT, armv6m.KindPop:
		if in.Kind == armv6m.KindPop && !in.Terminator() {
			return fallthrough_()
		}
		return nil
	case armv6m.KindBLX:
		ck.violate(CodeCFGIndirect, f, in.Addr, "indirect call (blx) is not analyzable")
		return nil
	case armv6m.KindSVC, armv6m.KindUDF:
		ck.violate(CodeCFGTrap, f, in.Addr, "reachable trap instruction (%s)", in.Text)
		return nil
	case armv6m.KindUnknown:
		ck.violate(CodeDecodeUnknown, f, in.Addr, "reachable halfword 0x%04x does not decode (data in the instruction stream?)", in.Op)
		return nil
	case armv6m.KindALU:
		if in.WritesPC {
			ck.violate(CodeCFGIndirect, f, in.Addr, "PC-writing ALU instruction (%s) is not analyzable", in.Text)
			return nil
		}
		return fallthrough_()
	default:
		return fallthrough_()
	}
}

// oracleBuildFn decodes the function at addr and partitions it into blocks.
func (ck *checker) oracleBuildFn(addr uint32) *fn {
	f := &fn{addr: addr, name: ck.funcName(addr)}
	blocks := make(map[uint32]*block)
	decoded := make(map[uint32]*instr)
	succs := make(map[uint32][]uint32)
	leaders := map[uint32]bool{addr: true}

	if _, ok := ck.decodeAt(addr); !ok {
		ck.violate(CodeDecodeUnknown, f, addr, "function entry outside the program image")
		return f
	}
	work := []uint32{addr}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if _, seen := decoded[a]; seen {
			continue
		}
		in, ok := ck.decodeAt(a)
		if !ok {
			ck.violate(CodeDecodeUnknown, f, a, "control flow leaves the program image")
			continue
		}
		decoded[a] = &in
		ss := ck.oracleSuccsOf(f, &in)
		succs[a] = ss
		if in.Kind == armv6m.KindBL {
			f.callSites = append(f.callSites, a)
			f.callees = append(f.callees, in.Target)
		}
		// Any successor set other than plain fallthrough makes each
		// successor a block leader.
		if len(ss) != 1 || ss[0] != a+uint32(in.Size) {
			for _, s := range ss {
				leaders[s] = true
			}
		}
		work = append(work, ss...)
	}

	addrs := make([]uint32, 0, len(decoded))
	for a := range decoded { //neurolint:allow maporder (keys sorted below)
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var cur *block
	for _, a := range addrs {
		in := decoded[a]
		// A new block starts at a leader or after a control-flow break.
		if cur == nil || leaders[a] || !oracleContiguous(cur, a) {
			cur = &block{start: a}
			blocks[a] = cur
			f.blockList = append(f.blockList, cur)
		}
		cur.instrs = append(cur.instrs, *in)
		// Block ends when the next address is a leader or flow diverges.
		ss := succs[a]
		if len(ss) != 1 || ss[0] != a+uint32(in.Size) || leaders[ss[0]] {
			cur = nil
		}
	}
	// Wire edges from each block's final instruction.
	for _, b := range f.blockList {
		for _, s := range succs[b.last().Addr] {
			t := blocks[s]
			if t == nil {
				// Successor decoded but mid-block: can only happen for a
				// branch into the middle of a block we merged; split is
				// avoided by the leader rule, so this is a safety net.
				continue
			}
			b.succs = append(b.succs, t)
			t.preds = append(t.preds, b)
		}
	}
	f.entry = blocks[addr]
	return f
}

// oracleContiguous reports whether a directly follows the last
// instruction currently in b.
func oracleContiguous(b *block, a uint32) bool {
	l := b.last()
	return l.Addr+uint32(l.Size) == a
}

// oracleDiscover is discover with oracleBuildFn.
func (ck *checker) oracleDiscover(roots []uint32) {
	queue := append([]uint32{}, roots...)
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		if _, done := ck.funcs[addr]; done {
			continue
		}
		f := ck.oracleBuildFn(addr)
		ck.funcs[addr] = f
		ck.funcOrder = append(ck.funcOrder, addr)
		queue = append(queue, f.callees...)
	}
}

// cfgParity recovers p's control-flow graphs under cfg twice, with
// buildFn and with oracleBuildFn, and returns the first difference:
// function order, names and entries, block starts, each block's
// instructions, successor and predecessor starts, call sites and
// callees, and the violations recorded by recovery and the
// cross-function edge check. A program without roots is no difference.
func cfgParity(p *thumb.Program, cfg Config) error {
	got, roots, isrs, err := newChecker(p, cfg)
	if err != nil {
		return nil
	}
	want, _, _, _ := newChecker(p, cfg)
	all := append(append([]uint32{}, roots...), isrs...)
	got.discover(all)
	got.crossFunctionEdges()
	want.oracleDiscover(all)
	want.crossFunctionEdges()

	if !slices.Equal(got.funcOrder, want.funcOrder) {
		return fmt.Errorf("function order %x, oracle %x", got.funcOrder, want.funcOrder)
	}
	for _, addr := range want.funcOrder {
		g, w := got.funcs[addr], want.funcs[addr]
		if err := sameFn(g, w); err != nil {
			return fmt.Errorf("function %s at 0x%08x: %w", w.name, addr, err)
		}
	}
	if len(got.violations) != len(want.violations) {
		return fmt.Errorf("%d violations %v, oracle %d %v", len(got.violations), got.violations, len(want.violations), want.violations)
	}
	for i := range want.violations {
		if got.violations[i] != want.violations[i] {
			return fmt.Errorf("violation %d: %v, oracle %v", i, got.violations[i], want.violations[i])
		}
	}
	return nil
}

// sameFn compares one function's CFG with the oracle's.
func sameFn(g, w *fn) error {
	if g.name != w.name || g.addr != w.addr {
		return fmt.Errorf("identity %s@0x%x, oracle %s@0x%x", g.name, g.addr, w.name, w.addr)
	}
	if (g.entry == nil) != (w.entry == nil) || (w.entry != nil && g.entry.start != w.entry.start) {
		return fmt.Errorf("entry block differs")
	}
	if !slices.Equal(g.callSites, w.callSites) || !slices.Equal(g.callees, w.callees) {
		return fmt.Errorf("calls %x->%x, oracle %x->%x", g.callSites, g.callees, w.callSites, w.callees)
	}
	if !slices.Equal(blockStarts(g.blockList), blockStarts(w.blockList)) {
		return fmt.Errorf("blocks %x, oracle %x", blockStarts(g.blockList), blockStarts(w.blockList))
	}
	for i, wb := range w.blockList {
		gb := g.blockList[i]
		if len(gb.instrs) != len(wb.instrs) {
			return fmt.Errorf("block 0x%08x: %d instructions, oracle %d", wb.start, len(gb.instrs), len(wb.instrs))
		}
		for j := range wb.instrs {
			if gb.instrs[j] != wb.instrs[j] {
				return fmt.Errorf("block 0x%08x instruction %d: %+v, oracle %+v", wb.start, j, gb.instrs[j], wb.instrs[j])
			}
		}
		if !slices.Equal(blockStarts(gb.succs), blockStarts(wb.succs)) {
			return fmt.Errorf("block 0x%08x: successors %x, oracle %x", wb.start, blockStarts(gb.succs), blockStarts(wb.succs))
		}
		if !slices.Equal(blockStarts(gb.preds), blockStarts(wb.preds)) {
			return fmt.Errorf("block 0x%08x: predecessors %x, oracle %x", wb.start, blockStarts(gb.preds), blockStarts(wb.preds))
		}
	}
	return nil
}

func blockStarts(bs []*block) []uint32 {
	out := make([]uint32, len(bs))
	for i, b := range bs {
		out[i] = b.start
	}
	return out
}
