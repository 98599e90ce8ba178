package asmcheck

// Worst-case stack depth and natural-loop discovery. The stack bound
// is the deepest local frame plus the deepest callee chain, over the
// context call graph (a DFS that also catches recursion). The loops
// feed the certificate export (cert.go), whose evaluator
// (cert.Certificate.Bounds) is the cycle bound.

// stackTotal is the worst-case stack depth (bytes) of the context,
// including callees.
func (ck *checker) stackTotal(k ctxKey) int {
	ci := ck.ctxs[k]
	if ci == nil {
		return 0
	}
	if ci.stackDone {
		return ci.stackMemo
	}
	if ci.stackOnDFS {
		ck.violate(CodeCFGRecursion, ck.funcs[k.addr], k.addr, "recursive call cycle through %s", ck.funcName(k.addr))
		return ci.maxDepth
	}
	ci.stackOnDFS = true
	total := ci.maxDepth
	for _, c := range ci.calls {
		if t := c.depth + ck.stackTotal(c.callee); t > total {
			total = t
		}
	}
	ci.stackOnDFS = false
	ci.stackMemo, ci.stackDone = total, true
	return total
}

// loopInfo is one natural loop: header, member blocks, latches.
type loopInfo struct {
	header  *block
	blocks  map[*block]bool
	latches []*block
}

// dominators computes immediate dominators with the standard iterative
// algorithm over a reverse postorder (Cooper/Harvey/Kennedy); block
// counts here are tiny.
func dominators(f *fn) map[*block]*block {
	// Reverse postorder.
	var order []*block
	index := make(map[*block]int)
	seen := make(map[*block]bool)
	var dfs func(b *block)
	dfs = func(b *block) {
		seen[b] = true
		for _, s := range b.succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(f.entry)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		index[b] = i
	}

	idom := make(map[*block]*block)
	idom[f.entry] = f.entry
	intersect := func(a, b *block) *block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == f.entry {
				continue
			}
			var newIdom *block
			for _, p := range b.preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b under idom.
func dominates(idom map[*block]*block, a, b *block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// findLoops identifies natural loops from back edges (latch -> header
// where the header dominates the latch), merging loops that share a
// header.
func (ck *checker) findLoops(f *fn, idom map[*block]*block) []*loopInfo {
	byHeader := make(map[*block]*loopInfo)
	var loops []*loopInfo
	for _, b := range f.blockList {
		for _, s := range b.succs {
			if idom[b] == nil || !dominates(idom, s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &loopInfo{header: s, blocks: map[*block]bool{s: true}}
				byHeader[s] = l
				loops = append(loops, l)
			}
			l.latches = append(l.latches, b)
			// Body: blocks that reach the latch without passing the header.
			work := []*block{b}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if l.blocks[x] {
					continue
				}
				l.blocks[x] = true
				work = append(work, x.preds...)
			}
		}
	}
	return loops
}
