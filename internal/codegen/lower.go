package codegen

import (
	"fmt"

	"debugtuner/internal/ir"
	"debugtuner/internal/vm"
)

// binSubFor maps IR binary opcodes to VM sub-operation codes.
var binSubFor = map[ir.Op]uint8{
	ir.OpAdd: vm.BinAdd, ir.OpSub: vm.BinSub, ir.OpMul: vm.BinMul,
	ir.OpDiv: vm.BinDiv, ir.OpRem: vm.BinRem, ir.OpAnd: vm.BinAnd,
	ir.OpOr: vm.BinOr, ir.OpXor: vm.BinXor, ir.OpShl: vm.BinShl,
	ir.OpShr: vm.BinShr, ir.OpEq: vm.BinEq, ir.OpNe: vm.BinNe,
	ir.OpLt: vm.BinLt, ir.OpLe: vm.BinLe, ir.OpGt: vm.BinGt,
	ir.OpGe: vm.BinGe,
}

// lowerer carries per-function lowering state.
type lowerer struct {
	prog *ir.Program
	opts *Options
	mf   *MFunc
	vreg []int // ir value ID -> vreg
	fidx map[string]int64
	byID []*MBlock // ir block ID -> machine block
	// split[b.ID][si] is the forwarding block on b's si-th successor
	// edge, or nil when that edge is not split.
	split [][]*MBlock
}

// forward is a machine block inserted on a critical edge: an edge from a
// multi-successor predecessor into a multi-predecessor block with phis,
// so the phi-elimination moves have a home that affects only that edge.
// pi is the edge's index in the target's predecessor list.
type forward struct {
	mb     *MBlock
	target *ir.Block
	pi     int
}

// lowerFunc converts one IR function to machine IR. The IR function is
// not modified: critical edges are split on the machine side, with the
// forwarding blocks numbered from f.NumBlockIDs() and laid out after the
// function's own blocks, in edge order.
func lowerFunc(prog *ir.Program, f *ir.Func, opts *Options, fidx map[string]int64) *MFunc {
	mf := &MFunc{
		Name: f.Name, NumSlots: f.NumSlots, NParams: f.NParams,
		StartLine: f.StartLine, Pure: f.Pure,
	}
	mf.SlotVars = append(mf.SlotVars, f.SlotVars...)
	lo := &lowerer{prog: prog, opts: opts, mf: mf, fidx: fidx}
	lo.vreg = make([]int, f.NumValueIDs())
	for i := range lo.vreg {
		lo.vreg[i] = -1
	}

	lo.byID = make([]*MBlock, f.NumBlockIDs())
	for _, b := range f.Blocks {
		mb := &MBlock{ID: b.ID, Freq: b.Freq, Prob: b.Prob}
		lo.byID[b.ID] = mb
		mf.Blocks = append(mf.Blocks, mb)
	}
	var fwds []forward
	for _, s := range f.Blocks {
		if len(s.Preds) < 2 || len(s.Phis()) == 0 {
			continue
		}
		for pi, p := range s.Preds {
			if len(p.Succs) < 2 {
				continue
			}
			if lo.split == nil {
				lo.split = make([][]*MBlock, f.NumBlockIDs())
			}
			if lo.split[p.ID] == nil {
				lo.split[p.ID] = make([]*MBlock, len(p.Succs))
			}
			mb := &MBlock{ID: f.NumBlockIDs() + len(fwds), Freq: 1, Prob: 0.5}
			for si, ps := range p.Succs {
				if ps == s && lo.split[p.ID][si] == nil {
					lo.split[p.ID][si] = mb
					break
				}
			}
			fwds = append(fwds, forward{mb, s, pi})
			mf.Blocks = append(mf.Blocks, mb)
		}
	}
	// Pre-assign vregs for phis so moves can target them.
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpPhi {
				lo.vreg[v.ID] = mf.newVReg()
			}
		}
	}
	var pairs []phiPair
	for _, b := range f.Blocks {
		mb := lo.byID[b.ID]
		for _, v := range b.Instrs {
			if !v.Op.IsTerminator() {
				lo.lowerValue(mb, v)
				continue
			}
			// Phi moves for each successor happen before the
			// terminator; a split edge's moves live in its forwarding
			// block instead.
			pairs = pairs[:0]
			for si, s := range b.Succs {
				if lo.fwdOn(b, si) != nil {
					continue
				}
				pi := -1
				for i, p := range s.Preds {
					if p == b {
						pi = i
						break
					}
				}
				pairs = lo.phiMoves(pairs, s, pi)
			}
			lo.emitParallelCopy(mb, pairs)
			lo.lowerTerm(b, mb, v)
		}
	}
	for _, fw := range fwds {
		lo.emitParallelCopy(fw.mb, lo.phiMoves(pairs[:0], fw.target, fw.pi))
		lo.emit(fw.mb, &MInstr{Op: vm.OpJmp, A: -1, B: -1, C: -1, D: -1})
		link(fw.mb, lo.byID[fw.target.ID])
	}
	runTER(mf, opts.TER)
	mirDCE(mf)
	return mf
}

// fwdOn returns the forwarding block on b's si-th successor edge, or
// nil when that edge is not split.
func (lo *lowerer) fwdOn(b *ir.Block, si int) *MBlock {
	if lo.split == nil || lo.split[b.ID] == nil {
		return nil
	}
	return lo.split[b.ID][si]
}

// link appends the control-flow edge from -> to.
func link(from, to *MBlock) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (lo *lowerer) v(val *ir.Value) int {
	r := lo.vreg[val.ID]
	if r < 0 {
		r = lo.mf.newVReg()
		lo.vreg[val.ID] = r
	}
	return r
}

func (lo *lowerer) emit(mb *MBlock, in *MInstr) *MInstr {
	mb.Instrs = append(mb.Instrs, in)
	return in
}

func (lo *lowerer) lowerValue(mb *MBlock, v *ir.Value) {
	line := v.Line
	switch v.Op {
	case ir.OpPhi:
		// materialized by predecessor moves
	case ir.OpConst:
		lo.emit(mb, &MInstr{Op: vm.OpConst, D: lo.v(v), Imm: v.AuxInt, Line: line, A: -1, B: -1, C: -1})
	case ir.OpParam:
		lo.emit(mb, &MInstr{Op: vm.OpLoadParam, D: lo.v(v), Imm: v.AuxInt, Line: line, A: -1, B: -1, C: -1})
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd,
		ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe,
		ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		lo.emit(mb, &MInstr{Op: vm.OpBin, Sub: binSubFor[v.Op],
			A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), D: lo.v(v), C: -1, Line: line})
	case ir.OpNeg:
		lo.emit(mb, &MInstr{Op: vm.OpNeg, A: lo.v(v.Args[0]), D: lo.v(v), B: -1, C: -1, Line: line})
	case ir.OpNot:
		lo.emit(mb, &MInstr{Op: vm.OpNot, A: lo.v(v.Args[0]), D: lo.v(v), B: -1, C: -1, Line: line})
	case ir.OpSelect:
		lo.emit(mb, &MInstr{Op: vm.OpSelect,
			A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), C: lo.v(v.Args[2]), D: lo.v(v), Line: line})
	case ir.OpSlotLoad:
		lo.emit(mb, &MInstr{Op: vm.OpLoadSlot, D: lo.v(v), Imm: v.AuxInt, A: -1, B: -1, C: -1, Line: line})
	case ir.OpSlotStore:
		lo.emit(mb, &MInstr{Op: vm.OpStoreSlot, A: lo.v(v.Args[0]), Imm: v.AuxInt, B: -1, C: -1, D: -1, Line: line})
	case ir.OpGLoad, ir.OpGArr:
		lo.emit(mb, &MInstr{Op: vm.OpGLoad, D: lo.v(v), Imm: v.AuxInt, A: -1, B: -1, C: -1, Line: line})
	case ir.OpGStore:
		lo.emit(mb, &MInstr{Op: vm.OpGStore, A: lo.v(v.Args[0]), Imm: v.AuxInt, B: -1, C: -1, D: -1, Line: line})
	case ir.OpNewArray:
		lo.emit(mb, &MInstr{Op: vm.OpNewArr, A: lo.v(v.Args[0]), D: lo.v(v), B: -1, C: -1, Line: line})
	case ir.OpALoad:
		lo.emit(mb, &MInstr{Op: vm.OpALoad, A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), D: lo.v(v), C: -1, Line: line})
	case ir.OpAStore:
		lo.emit(mb, &MInstr{Op: vm.OpAStore,
			A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), C: lo.v(v.Args[2]), D: -1, Line: line})
	case ir.OpLen:
		lo.emit(mb, &MInstr{Op: vm.OpLen, A: lo.v(v.Args[0]), D: lo.v(v), B: -1, C: -1, Line: line})
	case ir.OpVLoad2:
		lo.emit(mb, &MInstr{Op: vm.OpVLoad2, A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), D: lo.v(v), C: -1, Line: line})
	case ir.OpVBin:
		lo.emit(mb, &MInstr{Op: vm.OpVBin, Sub: binSubFor[ir.Op(v.AuxInt)],
			A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), D: lo.v(v), C: -1, Line: line})
	case ir.OpVStore2:
		lo.emit(mb, &MInstr{Op: vm.OpVStore2,
			A: lo.v(v.Args[0]), B: lo.v(v.Args[1]), C: lo.v(v.Args[2]), D: -1, Line: line})
	case ir.OpCall:
		for _, a := range v.Args {
			lo.emit(mb, &MInstr{Op: vm.OpArg, A: lo.v(a), B: -1, C: -1, D: -1, Line: line})
		}
		fi, ok := lo.fidx[v.Aux]
		if !ok {
			panic(fmt.Sprintf("codegen: call to unknown function %q", v.Aux))
		}
		lo.emit(mb, &MInstr{Op: vm.OpCall, D: lo.v(v), Imm: fi, A: -1, B: -1, C: -1, Line: line})
	case ir.OpPrint:
		lo.emit(mb, &MInstr{Op: vm.OpPrint, A: lo.v(v.Args[0]), B: -1, C: -1, D: -1, Line: line})
	case ir.OpDbgValue:
		in := &MInstr{Op: mDbg, Var: v.Var, A: -1, B: -1, C: -1, D: -1, Line: line}
		switch {
		case len(v.Args) == 0:
			in.Sub = dbgNone
		case v.Args[0].Op == ir.OpConst:
			in.Sub = dbgConst
			in.Imm = v.Args[0].AuxInt
		default:
			in.Sub = dbgVReg
			in.A = lo.v(v.Args[0])
		}
		lo.emit(mb, in)
	default:
		panic(fmt.Sprintf("codegen: cannot lower %v", v.Op))
	}
}

func (lo *lowerer) lowerTerm(b *ir.Block, mb *MBlock, v *ir.Value) {
	nsucc := 0
	switch v.Op {
	case ir.OpRet:
		in := &MInstr{Op: vm.OpRet, A: -1, B: -1, C: -1, D: -1, Line: v.Line}
		if len(v.Args) == 1 {
			in.Sub = 1
			in.A = lo.v(v.Args[0])
		}
		lo.emit(mb, in)
	case ir.OpJmp:
		lo.emit(mb, &MInstr{Op: vm.OpJmp, A: -1, B: -1, C: -1, D: -1, Line: v.Line})
		nsucc = 1
	case ir.OpBr:
		lo.emit(mb, &MInstr{Op: vm.OpBr, A: lo.v(v.Args[0]), B: -1, C: -1, D: -1, Line: v.Line})
		nsucc = 2
	}
	for si, s := range b.Succs[:nsucc] {
		to := lo.fwdOn(b, si)
		if to == nil {
			to = lo.byID[s.ID]
		}
		link(mb, to)
	}
}

// phiPair is one parallel-copy move of phi elimination.
type phiPair struct{ dst, src int }

// phiMoves appends the copies that materialize s's phis along its pi-th
// incoming edge.
func (lo *lowerer) phiMoves(pairs []phiPair, s *ir.Block, pi int) []phiPair {
	for _, phi := range s.Instrs {
		if phi.Op != ir.OpPhi {
			break
		}
		dst := lo.v(phi)
		src := lo.v(phi.Args[pi])
		if dst != src {
			pairs = append(pairs, phiPair{dst, src})
		}
	}
	return pairs
}

// emitParallelCopy lowers the phi semantics of a block's successors into
// parallel copies at the end of mb (before its terminator position — the
// caller emits the terminator afterwards). Critical edges were split, so
// when a successor has phis either the block is its only predecessor
// source of conflict or it is a dedicated forwarding block.
func (lo *lowerer) emitParallelCopy(mb *MBlock, pairs []phiPair) {
	// Emit copies whose destination is not a pending source; break
	// cycles with a temporary.
	for len(pairs) > 0 {
		emitted := false
		for i, p := range pairs {
			isSrc := false
			for j, q := range pairs {
				if i != j && q.src == p.dst {
					isSrc = true
					break
				}
			}
			if isSrc {
				continue
			}
			lo.emit(mb, &MInstr{Op: vm.OpMov, D: p.dst, A: p.src, B: -1, C: -1})
			pairs = append(pairs[:i], pairs[i+1:]...)
			emitted = true
			break
		}
		if emitted {
			continue
		}
		// Cycle: rotate through a temp.
		tmp := lo.mf.newVReg()
		p := pairs[0]
		lo.emit(mb, &MInstr{Op: vm.OpMov, D: tmp, A: p.src, B: -1, C: -1})
		for j := range pairs {
			if pairs[j].src == p.src {
				pairs[j].src = tmp
			}
		}
	}
}

// runTER folds constants into immediate operands and lets the now-unused
// constant loads die — gcc's temporary expression replacement at
// expansion time. Short immediates (fitting the instruction word) fold
// unconditionally during lowering, as on any real ISA; the tree-ter
// toggle extends folding to wide constants, whose materializing loads —
// and their line-table rows — then disappear.
func runTER(mf *MFunc, full bool) {
	constVal := map[int]int64{}
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if in.Op == vm.OpConst {
				constVal[in.D] = in.Imm
			}
		}
	}
	foldable := func(c int64) bool {
		return full || (c >= -64 && c < 64)
	}
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if in.Op != vm.OpBin {
				continue
			}
			if c, ok := constVal[in.B]; ok && foldable(c) {
				in.Op = vm.OpBinImm
				in.Imm = c
				in.B = -1
				continue
			}
			if c, ok := constVal[in.A]; ok && commutative(in.Sub) && foldable(c) {
				in.A = in.B
				in.Op = vm.OpBinImm
				in.Imm = c
				in.B = -1
			}
		}
	}
}

func commutative(sub uint8) bool {
	switch sub {
	case vm.BinAdd, vm.BinMul, vm.BinAnd, vm.BinOr, vm.BinXor,
		vm.BinEq, vm.BinNe:
		return true
	}
	return false
}

// mirDCE removes pure machine instructions whose destinations are never
// read. Debug markers referencing a removed constant convert to constant
// markers; markers referencing other removed values become "optimized
// out".
func mirDCE(mf *MFunc) {
	markers := make([][]*MInstr, mf.NumVRegs) // vreg -> markers bound to it
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mDbg && in.Sub == dbgVReg && in.A >= 0 {
				markers[in.A] = append(markers[in.A], in)
			}
		}
	}
	used := make([]bool, mf.NumVRegs)
	var reads []int
	for {
		clear(used)
		for _, b := range mf.Blocks {
			for _, in := range b.Instrs {
				if in.Op == mDbg {
					continue
				}
				reads = readsOf(in, reads[:0])
				for _, r := range reads {
					if r >= 0 {
						used[r] = true
					}
				}
			}
		}
		changed := false
		for _, b := range mf.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				d := defOf(in)
				if d < 0 || used[d] || hasSideEffect(in) {
					kept = append(kept, in)
					continue
				}
				// Fix markers bound to the removed value.
				for _, mk := range markers[d] {
					if in.Op == vm.OpConst {
						mk.Sub = dbgConst
						mk.Imm = in.Imm
					} else {
						mk.Sub = dbgNone
					}
					mk.A = -1
				}
				markers[d] = nil
				changed = true
			}
			b.Instrs = kept
		}
		if !changed {
			return
		}
	}
}
