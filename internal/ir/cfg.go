package ir

// CFG edge and dominator utilities shared by the optimization passes.
// Phi operands are positional: Phi.Args[i] corresponds to Block.Preds[i],
// so every edge edit below keeps the two aligned.

// AddEdge appends an edge from b to s, extending s's phis with the given
// incoming value chooser (nil keeps phis unchanged — caller must fix up).
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// predIndex returns the index of p in b.Preds, or -1.
func predIndex(b, p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// RemovePredEdge removes the i-th predecessor edge of b, dropping the
// corresponding phi operands.
func RemovePredEdge(b *Block, i int) {
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	for _, v := range b.Instrs {
		if v.Op != OpPhi {
			break
		}
		v.Args = append(v.Args[:i], v.Args[i+1:]...)
	}
}

// ReplaceSucc redirects b's edge from old to new, updating pred lists on
// both ends. Phi operands of old are removed; new gains the edge with the
// supplied phi values appended (phiVals may be nil when new has no phis).
func ReplaceSucc(b, old, new_ *Block, phiVals []*Value) {
	for i, s := range b.Succs {
		if s == old {
			b.Succs[i] = new_
			break
		}
	}
	if i := predIndex(old, b); i >= 0 {
		RemovePredEdge(old, i)
	}
	new_.Preds = append(new_.Preds, b)
	j := 0
	for _, v := range new_.Instrs {
		if v.Op != OpPhi {
			break
		}
		if j < len(phiVals) {
			v.Args = append(v.Args, phiVals[j])
		}
		j++
	}
}

// RemoveValue deletes v from its block. It is the caller's responsibility
// that v has no remaining uses.
func RemoveValue(v *Value) {
	b := v.Block
	for i, w := range b.Instrs {
		if w == v {
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			return
		}
	}
}

// InsertBefore places v immediately before pos in pos's block.
func InsertBefore(pos, v *Value) {
	b := pos.Block
	v.Block = b
	for i, w := range b.Instrs {
		if w == pos {
			b.Instrs = append(b.Instrs, nil)
			copy(b.Instrs[i+1:], b.Instrs[i:])
			b.Instrs[i] = v
			return
		}
	}
	b.Instrs = append(b.Instrs, v)
}

// Reachable returns the set of blocks reachable from the entry.
func Reachable(f *Func) map[*Block]bool {
	seen := map[*Block]bool{}
	var stack []*Block
	stack = append(stack, f.Entry())
	seen[f.Entry()] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RemoveUnreachable deletes blocks not reachable from entry, fixing up
// pred lists and phis of surviving blocks. It reports whether anything
// changed.
func RemoveUnreachable(f *Func) bool {
	seen := Reachable(f)
	if len(seen) == len(f.Blocks) {
		return false
	}
	for _, b := range f.Blocks {
		if !seen[b] {
			continue
		}
		for i := len(b.Preds) - 1; i >= 0; i-- {
			if !seen[b.Preds[i]] {
				RemovePredEdge(b, i)
			}
		}
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if seen[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	return true
}

// RPO returns the blocks in reverse postorder.
func RPO(f *Func) []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs {
			if !seen[s] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(f.Entry())
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Dominators computes the immediate dominator of every reachable block
// using the Cooper–Harvey–Kennedy iterative algorithm. The entry block's
// idom is itself.
func Dominators(f *Func) map[*Block]*Block {
	order := RPO(f)
	index := make(map[*Block]int, len(order))
	for i, b := range order {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(order))
	entry := f.Entry()
	idom[entry] = entry
	intersect := func(a, b *Block) *Block {
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
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
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

// Dominates reports whether a dominates b under the idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

// DomTree builds children lists from an idom map.
func DomTree(f *Func, idom map[*Block]*Block) map[*Block][]*Block {
	tree := make(map[*Block][]*Block)
	for _, b := range f.Blocks {
		if p := idom[b]; p != nil && p != b {
			tree[p] = append(tree[p], b)
		}
	}
	return tree
}

// EstimateFrequencies assigns Block.Freq from branch probabilities:
// probabilities propagate along forward edges in reverse postorder, and
// each block's result is scaled by 8^loop-depth (back-edge natural
// loops), the classic static frequency estimate that
// guess-branch-probability feeds to layout and the register allocator.
func EstimateFrequencies(f *Func) {
	order := RPO(f)
	index := make(map[*Block]int, len(order))
	for i, b := range order {
		index[b] = i
	}
	idom := Dominators(f)
	// Loop depth from natural loops (back edge b->h with h dominating b).
	depth := map[*Block]int{}
	for _, b := range order {
		for _, s := range b.Succs {
			if !Dominates(idom, s, b) {
				continue
			}
			// Collect the natural loop of edge b -> s.
			inLoop := map[*Block]bool{s: true}
			stack := []*Block{}
			if !inLoop[b] {
				inLoop[b] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !inLoop[p] {
						inLoop[p] = true
						stack = append(stack, p)
					}
				}
			}
			for blk := range inLoop {
				depth[blk]++
			}
		}
	}
	// Acyclic probability propagation.
	prob := map[*Block]float64{}
	prob[f.Entry()] = 1
	for _, b := range order {
		if prob[b] == 0 && b != f.Entry() {
			prob[b] = 0.0001
		}
		t := b.Term()
		if t == nil {
			continue
		}
		push := func(s *Block, p float64) {
			if index[s] <= index[b] {
				return // back edge: handled by the depth multiplier
			}
			prob[s] += prob[b] * p
		}
		switch t.Op {
		case OpJmp:
			push(b.Succs[0], 1)
		case OpBr:
			push(b.Succs[0], b.Prob)
			push(b.Succs[1], 1-b.Prob)
		}
	}
	for _, b := range f.Blocks {
		m := 1.0
		for d := 0; d < depth[b] && d < 6; d++ {
			m *= 8
		}
		b.Freq = prob[b] * m
	}
}
