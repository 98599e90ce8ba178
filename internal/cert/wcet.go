package cert

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Certificate-driven WCET: the worst-case cycle count of a certified
// function, computed purely from the artifact — block cost formulas,
// successor edges, taken-edge extras, loop bounds, and call facts. No
// re-analysis of the machine code happens here; the certificate is the
// single source of truth. This is the repository's only cycle-bound
// engine: asmcheck's report and the certificate's WCETCycles are read
// off it (via Bounds), and the per-layer encoding search
// (internal/modelimg) ranks encodings with it (via WCET).
//
// The computation is the classic hierarchical loop collapse: innermost
// loops first, each natural loop is replaced by a single super-node
// whose cost is (Bound-1) worst iterations plus the worst final path to
// each exit edge, then the reduced function body is a DAG and the
// answer is its longest path from the entry block. The result is a
// sound upper bound. It equals the measured cycle count only when every
// loop runs its annotated bound, as in the kernels' uniform self-check
// harnesses (wcet_test.go pins WCET == measured cycles for every kernel
// variant on both interpreters across wait-state settings). On real
// layers most loops run short of their bounds and the figure is an
// upper bound (1.2x to 6x the measured count, depending on the
// encoding; see docs/ASMCHECK.md).
//
// WCET requires every reachable block to be exact (proven cost
// formulas): the search must never rank encodings with unproven
// numbers. Bounds also accepts inexact blocks, whose formulas charge
// each unproven single load/store a data wait state, the most the
// access can pay.

// gnode is one node of the reduction graph: a basic block, or a
// collapsed loop.
type gnode struct {
	cost uint64            // node cycles (callee totals folded in at BL sites)
	out  map[uint32]uint64 // successor -> edge extra (max over parallel edges)
}

// WCET returns the worst-case cycle count of the named certified
// function at the given flash wait-state setting, callees included. It
// refuses functions with inexact blocks.
func (c *Certificate) WCET(name string, ws int) (uint64, error) {
	f := c.FuncByName(name)
	if f == nil {
		return 0, fmt.Errorf("cert: no certified function %q", name)
	}
	return c.funcWCET(f, uint64(ws), true, make(map[uint32]uint64), make(map[uint32]bool))
}

// satAdd and satMul saturate at the 64-bit maximum, which funcWCET
// turns into an error: loop bounds come from source annotations and
// can be large enough to wrap a plain product.
func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// Bounds returns an upper bound on the cycles of every certified
// function at the given flash wait-state setting, callees included,
// keyed by function address. Unlike WCET it prices inexact blocks by
// their conservative formulas; on a fully exact function the two
// agree. A function whose bound is undefined (an unbounded loop,
// recursion, or a count past 64 bits) has no entry. One evaluation
// serves all functions, so a shared callee is priced once.
func (c *Certificate) Bounds(ws int) map[uint32]uint64 {
	memo := make(map[uint32]uint64)
	active := make(map[uint32]bool)
	out := make(map[uint32]uint64, len(c.Funcs))
	for i := range c.Funcs {
		if v, err := c.funcWCET(&c.Funcs[i], uint64(ws), false, memo, active); err == nil {
			out[c.Funcs[i].Addr] = v
		}
	}
	return out
}

func (c *Certificate) funcWCET(f *Func, ws uint64, exact bool, memo map[uint32]uint64, active map[uint32]bool) (uint64, error) {
	if v, ok := memo[f.Addr]; ok {
		return v, nil
	}
	if active[f.Addr] {
		return 0, fmt.Errorf("cert: recursive call through %s; WCET undefined", f.Name)
	}
	active[f.Addr] = true
	defer delete(active, f.Addr)

	// Build the reduction graph from the certified blocks.
	nodes := make(map[uint32]*gnode, len(f.Blocks))
	for i := range f.Blocks {
		b := &f.Blocks[i]
		if exact && !b.Exact {
			return 0, fmt.Errorf("cert: block 0x%08x of %s is not exact; WCET requires proven cost formulas", b.Start, f.Name)
		}
		n := &gnode{cost: b.Cost.Eval(ws), out: make(map[uint32]uint64, len(b.Succs))}
		// Fold callee worst cases into the block cost at each BL site.
		for j := range b.Instrs {
			if call := b.Instrs[j].Call; call != 0 {
				callee := c.Func(call)
				if callee == nil {
					return 0, fmt.Errorf("cert: %s calls uncertified address 0x%08x", f.Name, call)
				}
				sub, err := c.funcWCET(callee, ws, exact, memo, active)
				if err != nil {
					return 0, err
				}
				n.cost = satAdd(n.cost, sub)
			}
		}
		// The taken-edge extra applies to the conditional terminator's
		// target; every other successor edge is free.
		var taken uint32
		if b.TakenExtra > 0 && len(b.Instrs) > 0 {
			taken = b.Instrs[len(b.Instrs)-1].Target
		}
		for _, s := range b.Succs {
			extra := uint64(0)
			if s == taken {
				extra = b.TakenExtra
			}
			if old, ok := n.out[s]; !ok || extra > old {
				n.out[s] = extra
			}
		}
		nodes[b.Start] = n
	}

	// rep maps a block start to the super-node that absorbed it.
	rep := make(map[uint32]uint32)
	find := func(a uint32) uint32 {
		for {
			r, ok := rep[a]
			if !ok {
				return a
			}
			a = r
		}
	}

	// Collapse loops innermost-first (fewer member blocks first; a
	// nested loop is a strict subset of its parent).
	loops := append([]Loop(nil), f.Loops...)
	sort.SliceStable(loops, func(i, j int) bool { return len(loops[i].Blocks) < len(loops[j].Blocks) })
	for _, l := range loops {
		h := find(l.Header)
		members := make(map[uint32]bool)
		for _, b := range l.Blocks {
			members[find(b)] = true
		}
		dist, err := loopPaths(nodes, members, h)
		if err != nil {
			return 0, fmt.Errorf("cert: %s loop 0x%08x: %w", f.Name, l.Header, err)
		}
		// Worst single iteration: header through a latch plus the back
		// edge's extra.
		var iterMax uint64
		for _, latch := range l.Latches {
			lr := find(latch)
			d, ok := dist[lr]
			if !ok {
				return 0, fmt.Errorf("cert: %s loop 0x%08x: latch 0x%08x unreachable from header", f.Name, l.Header, latch)
			}
			w := satAdd(d, nodes[lr].out[h])
			if w > iterMax {
				iterMax = w
			}
		}
		if l.Bound == 0 {
			return 0, fmt.Errorf("cert: %s loop 0x%08x has a zero bound", f.Name, l.Header)
		}
		// Worst path from the header to each exit target: the final
		// iteration, priced per exit edge.
		exits := make(map[uint32]uint64)
		for m := range members { //neurolint:allow maporder (commutative max over exit edges)
			for s, extra := range nodes[m].out { //neurolint:allow maporder (commutative max over exit edges)
				if members[s] || s == h {
					continue
				}
				w := satAdd(dist[m], extra)
				if old, ok := exits[s]; !ok || w > old {
					exits[s] = w
				}
			}
		}
		super := nodes[h]
		super.cost = satMul(l.Bound-1, iterMax)
		super.out = exits
		for m := range members { //neurolint:allow maporder (commutative deletes; no output order)
			if m != h {
				delete(nodes, m)
				rep[m] = h
			}
		}
	}

	entry := find(f.Addr)
	if _, ok := nodes[entry]; !ok {
		return 0, fmt.Errorf("cert: %s has no entry block", f.Name)
	}
	total, err := dagLongest(nodes, entry)
	if err != nil {
		return 0, fmt.Errorf("cert: %s: %w", f.Name, err)
	}
	if total == math.MaxUint64 {
		return 0, fmt.Errorf("cert: %s: cycle count overflows 64 bits", f.Name)
	}
	memo[f.Addr] = total
	return total, nil
}

// loopPaths computes, for each member of a collapsed loop, the longest
// path cost from the header (inclusive of both endpoint node costs),
// treating edges back to the header as removed. The member subgraph
// must be acyclic after inner-loop collapse.
func loopPaths(nodes map[uint32]*gnode, members map[uint32]bool, header uint32) (map[uint32]uint64, error) {
	indeg := make(map[uint32]int, len(members))
	for m := range members { //neurolint:allow maporder (indegree counting, commutative)
		indeg[m] += 0
		for s := range nodes[m].out { //neurolint:allow maporder (indegree counting, commutative)
			if members[s] && s != header {
				indeg[s]++
			}
		}
	}
	dist := map[uint32]uint64{header: nodes[header].cost}
	queue := []uint32{}
	for m := range members { //neurolint:allow maporder (queue seeding; longest-path result is order-independent)
		if indeg[m] == 0 {
			queue = append(queue, m)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		du, reachable := dist[u]
		for s, extra := range nodes[u].out { //neurolint:allow maporder (relaxation maxima, commutative)
			if !members[s] || s == header {
				continue
			}
			if reachable {
				if w := satAdd(satAdd(du, extra), nodes[s].cost); w > dist[s] {
					dist[s] = w
				}
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(members) {
		return nil, fmt.Errorf("member subgraph is cyclic (an inner loop was not certified)")
	}
	return dist, nil
}

// dagLongest returns the longest path cost from entry over the fully
// reduced graph (node costs plus edge extras), erroring on residual
// cycles — a loop the certificate failed to bound.
func dagLongest(nodes map[uint32]*gnode, entry uint32) (uint64, error) {
	indeg := make(map[uint32]int, len(nodes))
	for a := range nodes { //neurolint:allow maporder (indegree counting, commutative)
		indeg[a] += 0
		for s := range nodes[a].out { //neurolint:allow maporder (indegree counting, commutative)
			if _, ok := nodes[s]; ok {
				indeg[s]++
			}
		}
	}
	dist := make(map[uint32]uint64, len(nodes))
	dist[entry] = nodes[entry].cost
	queue := []uint32{}
	for a := range nodes { //neurolint:allow maporder (queue seeding; longest-path result is order-independent)
		if indeg[a] == 0 {
			queue = append(queue, a)
		}
	}
	seen, best := 0, uint64(0)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		seen++
		du, reachable := dist[u]
		if reachable && du > best {
			best = du
		}
		for s, extra := range nodes[u].out { //neurolint:allow maporder (relaxation maxima, commutative)
			if _, ok := nodes[s]; !ok {
				continue // edge out of the function body (tail jump)
			}
			if reachable {
				if w := satAdd(satAdd(du, extra), nodes[s].cost); w > dist[s] {
					dist[s] = w
				}
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(nodes) {
		return 0, fmt.Errorf("control-flow graph has an unbounded cycle")
	}
	return best, nil
}
