package passes

import "debugtuner/internal/ir"

// mem2reg promotes local slots to SSA values with phi nodes (LLVM calls
// the user-visible pass SROA, gcc builds SSA directly). For every
// promoted slot bound to a source variable, a DbgValue is planted at each
// inserted phi so the variable's value remains described across merges —
// the same debug-info updating LLVM's mem2reg performs.
//
// Registered as "sroa" (clang) and "tree-ssa" (gcc alias).
var mem2regPass = Register(&Pass{
	Name:    "sroa",
	RunFunc: runMem2Reg,
})

func init() {
	// gcc builds SSA unconditionally; expose the same implementation
	// under its gcc toggle name so pipelines can share it.
	Register(&Pass{Name: "tree-ssa", RunFunc: runMem2Reg})
}

func runMem2Reg(ctx *Context, f *ir.Func) bool {
	if f.NumSlots == 0 {
		return false
	}
	ir.RemoveUnreachable(f)
	idom := ir.Dominators(f)
	df := dominanceFrontiers(f, idom)

	// Collect definition sites per slot.
	defBlocks := make([][]*ir.Block, f.NumSlots)
	for _, b := range f.Blocks {
		seen := map[int64]bool{}
		for _, v := range b.Instrs {
			if v.Op == ir.OpSlotStore && !seen[v.AuxInt] {
				seen[v.AuxInt] = true
				defBlocks[v.AuxInt] = append(defBlocks[v.AuxInt], b)
			}
		}
	}

	// Insert phis at iterated dominance frontiers. phis keeps creation
	// order so the debug bindings below are planted deterministically.
	phiSlot := map[*ir.Value]int{}
	var phis []*ir.Value
	for slot := 0; slot < f.NumSlots; slot++ {
		work := append([]*ir.Block(nil), defBlocks[slot]...)
		hasPhi := map[*ir.Block]bool{}
		inWork := map[*ir.Block]bool{}
		for _, b := range work {
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range df[b] {
				if hasPhi[d] {
					continue
				}
				hasPhi[d] = true
				phi := f.NewValue(d, ir.OpPhi, 0)
				phi.Args = make([]*ir.Value, len(d.Preds))
				d.Instrs = append([]*ir.Value{phi}, d.Instrs...)
				phiSlot[phi] = slot
				phis = append(phis, phi)
				if !inWork[d] {
					inWork[d] = true
					work = append(work, d)
				}
			}
		}
	}

	// Rename along the dominator tree. Slots are zero-initialized, so
	// a read before any write sees constant zero.
	tree := ir.DomTree(f, idom)
	var zero *ir.Value
	getZero := func() *ir.Value {
		if zero == nil {
			entry := f.Entry()
			zero = f.NewValue(entry, ir.OpConst, 0)
			entry.Instrs = append([]*ir.Value{zero}, entry.Instrs...)
		}
		return zero
	}

	var dead []*ir.Value
	var rename func(b *ir.Block, cur []*ir.Value)
	rename = func(b *ir.Block, cur []*ir.Value) {
		cur = append([]*ir.Value(nil), cur...)
		for _, v := range b.Instrs {
			switch v.Op {
			case ir.OpPhi:
				if slot, ok := phiSlot[v]; ok {
					cur[slot] = v
				}
			case ir.OpSlotLoad:
				def := cur[v.AuxInt]
				if def == nil {
					def = getZero()
				}
				RAUW(ctx, f, v, def)
				dead = append(dead, v)
			case ir.OpSlotStore:
				cur[v.AuxInt] = v.Args[0]
				dead = append(dead, v)
			}
		}
		for _, s := range b.Succs {
			pi := -1
			for i, p := range s.Preds {
				if p == b {
					pi = i
					break
				}
			}
			for _, v := range s.Instrs {
				if v.Op != ir.OpPhi {
					break
				}
				slot, ok := phiSlot[v]
				if !ok {
					continue
				}
				def := cur[slot]
				if def == nil {
					def = getZero()
				}
				v.Args[pi] = def
			}
		}
		for _, c := range tree[b] {
			rename(c, cur)
		}
	}
	rename(f.Entry(), make([]*ir.Value, f.NumSlots))

	for _, v := range dead {
		ir.RemoveValue(v)
	}

	// Describe promoted variables across merges: a phi for a variable's
	// slot defines the variable at the merge point.
	for _, phi := range phis {
		sym := f.SlotVars[phiSlot[phi]]
		if sym == nil {
			continue
		}
		b := phi.Block
		dv := f.NewValue(b, ir.OpDbgValue, 0, phi)
		dv.Var = sym
		// Insert after the phi prefix.
		i := len(b.Phis())
		b.Instrs = append(b.Instrs, nil)
		copy(b.Instrs[i+1:], b.Instrs[i:])
		b.Instrs[i] = dv
	}

	f.NumSlots = 0
	f.SlotVars = nil
	return true
}

// dominanceFrontiers computes DF(b) for every block (Cooper et al.).
func dominanceFrontiers(f *ir.Func, idom map[*ir.Block]*ir.Block) map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	has := make(map[*ir.Block]map[*ir.Block]bool)
	for _, b := range f.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != idom[b] {
				if has[runner] == nil {
					has[runner] = map[*ir.Block]bool{}
				}
				if !has[runner][b] {
					has[runner][b] = true
					df[runner] = append(df[runner], b)
				}
				next := idom[runner]
				if next == runner {
					break
				}
				runner = next
			}
		}
	}
	return df
}
