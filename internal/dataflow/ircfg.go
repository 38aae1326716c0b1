package dataflow

import "debugtuner/internal/ir"

// IRCFG adapts an SSA IR function to the solver's Graph interface.
// Nodes are positions in f.Blocks; node 0 is the entry block.
type IRCFG struct {
	succs [][]int
	preds [][]int
}

// NewIRCFG builds the adapter. Block identity is positional, so the
// function's block list must not be mutated while the CFG is in use.
func NewIRCFG(f *ir.Func) *IRCFG {
	idx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b] = i
	}
	g := &IRCFG{
		succs: make([][]int, len(f.Blocks)),
		preds: make([][]int, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			if si, ok := idx[s]; ok {
				g.succs[i] = append(g.succs[i], si)
			}
		}
		for _, p := range b.Preds {
			if pi, ok := idx[p]; ok {
				g.preds[i] = append(g.preds[i], pi)
			}
		}
	}
	return g
}

// NumNodes implements Graph.
func (g *IRCFG) NumNodes() int { return len(g.succs) }

// Succs implements Graph.
func (g *IRCFG) Succs(n int) []int { return g.succs[n] }

// Preds implements Graph.
func (g *IRCFG) Preds(n int) []int { return g.preds[n] }

// ReachableBlocks returns the set of IR blocks reachable from the
// entry, computed on the adapter (the dataflow twin of ir.Reachable).
func ReachableBlocks(f *ir.Func) map[*ir.Block]bool {
	if len(f.Blocks) == 0 {
		return map[*ir.Block]bool{}
	}
	g := NewIRCFG(f)
	reach := Reachable(g)
	out := make(map[*ir.Block]bool, len(reach))
	for i, r := range reach {
		if r {
			out[f.Blocks[i]] = true
		}
	}
	return out
}
