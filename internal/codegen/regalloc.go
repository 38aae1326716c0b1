package codegen

import (
	"sort"

	"debugtuner/internal/dataflow"
	"debugtuner/internal/vm"
)

// Linear-scan register allocation over the laid-out machine IR.
//
// Registers 0..allocatableRegs-1 are assignable; the last three
// registers are reserved as spill scratch (three-operand instructions
// like astore/select can have all operands spilled at once). Debug markers never extend live ranges —
// debug information must not change code generation — which is precisely
// why a variable's binding can point at a register that has since been
// reused (and why the runtime materialization check exists).
const (
	allocatableRegs = vm.NumRegs - 3
	scratch0        = vm.NumRegs - 3
	scratch1        = vm.NumRegs - 2
	scratch2        = vm.NumRegs - 1
)

// dbgSpill is the post-RA marker kind for a variable bound to a spilled
// value; Imm holds the spill slot.
const dbgSpill = 3

type interval struct {
	vreg       int
	live       bool // the vreg is defined or read by real code
	start, end int
	uses       float64 // frequency-weighted use count, for spill choice
	reg        int     // assigned register, or -1 when spilled
	spillSlot  int
}

// regalloc assigns physical registers and rewrites the code in place;
// spilled operands go through the scratch registers with explicit slot
// traffic.
func regalloc(mf *MFunc, opts *Options) {
	order := mf.Blocks
	// Linear positions: each instruction gets an index in layout order.
	// Half-position numbering: instruction k reads at 2k and defines at
	// 2k+1, so a move's source interval ends strictly before its
	// destination begins and the two can share a register.
	blockStart := make([]int, len(order))
	blockEnd := make([]int, len(order))
	n := 0
	for bi, b := range order {
		blockStart[bi] = 2 * n
		for _, in := range b.Instrs {
			if in.Op != mDbg {
				n++
			}
		}
		blockEnd[bi] = 2 * n
	}

	liveIn, liveOut := liveness(mf)

	// Build single-range intervals, indexed by vreg, and each vreg's
	// move-related partner for coalescing (-1: none).
	ivs := make([]interval, mf.NumVRegs)
	hint := make([]int, mf.NumVRegs)
	for v := range ivs {
		ivs[v] = interval{vreg: v, start: 1 << 30, end: -1, reg: -1}
		hint[v] = -1
	}
	extend := func(v, from, to int) {
		iv := &ivs[v]
		iv.live = true
		if from < iv.start {
			iv.start = from
		}
		if to > iv.end {
			iv.end = to
		}
	}
	var reads []int
	p := 0
	for bi, b := range order {
		liveIn[bi].ForEach(func(v int) { extend(v, blockStart[bi], blockStart[bi]) })
		liveOut[bi].ForEach(func(v int) { extend(v, blockStart[bi], blockEnd[bi]) })
		w := 1 + b.Freq
		for _, in := range b.Instrs {
			if in.Op == mDbg {
				continue
			}
			d := defOf(in)
			if d >= 0 {
				extend(d, 2*p+1, 2*p+1)
			}
			reads = readsOf(in, reads[:0])
			for _, r := range reads {
				if r >= 0 {
					extend(r, 2*p, 2*p)
					ivs[r].uses += w
				}
			}
			if d >= 0 {
				ivs[d].uses += w
			}
			if in.Op == vm.OpMov {
				// Move-related intervals prefer one register (basic
				// out-of-SSA coalescing, always on). The CoalesceVars
				// toggle additionally chains hints across moves,
				// merging storage of distinct source variables —
				// gcc's tree-coalesce-vars, with its measured debug
				// cost.
				hint[in.D] = in.A
				hint[in.A] = in.D
			}
			p++
		}
	}

	if opts.CoalesceVars {
		chainHints(hint)
	}
	list := make([]*interval, 0, len(ivs))
	for v := range ivs {
		if ivs[v].live {
			list = append(list, &ivs[v])
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].start != list[j].start {
			return list[i].start < list[j].start
		}
		return list[i].vreg < list[j].vreg
	})

	// Scan.
	var active []*interval
	freeRegs := [allocatableRegs]bool{}
	for i := range freeRegs {
		freeRegs[i] = true
	}
	expire := func(now int) {
		kept := active[:0]
		for _, a := range active {
			if a.end < now {
				freeRegs[a.reg] = true
			} else {
				kept = append(kept, a)
			}
		}
		active = kept
	}
	nextSpill := mf.NumSlots
	var spillEnds []int // per spill slot: end of last occupant's interval
	assignSlot := func(iv *interval) {
		if opts.ShareSpillSlots {
			for s := mf.NumSlots; s < nextSpill; s++ {
				if spillEnds[s-mf.NumSlots] < iv.start {
					spillEnds[s-mf.NumSlots] = iv.end
					iv.spillSlot = s
					return
				}
			}
		}
		iv.spillSlot = nextSpill
		spillEnds = append(spillEnds, iv.end)
		nextSpill++
	}
	for _, iv := range list {
		expire(iv.start)
		// Try the coalescing hint first.
		if hv := hint[iv.vreg]; hv >= 0 {
			if h := &ivs[hv]; h.live && h.reg >= 0 && freeRegs[h.reg] {
				iv.reg = h.reg
				freeRegs[h.reg] = false
				active = append(active, iv)
				continue
			}
		}
		assigned := false
		for r := 0; r < allocatableRegs; r++ {
			if freeRegs[r] {
				iv.reg = r
				freeRegs[r] = false
				active = append(active, iv)
				assigned = true
				break
			}
		}
		if assigned {
			continue
		}
		// Spill the active interval with the lowest frequency-weighted
		// use density: long-lived loop-carried values stay in registers
		// while cold scratch values go to the stack.
		victim := iv
		for _, a := range active {
			if spillScore(a) < spillScore(victim) {
				victim = a
			}
		}
		if victim == iv {
			assignSlot(iv)
			continue
		}
		iv.reg = victim.reg
		victim.reg = -1
		assignSlot(victim)
		for k, a := range active {
			if a == victim {
				active[k] = iv
				break
			}
		}
	}

	mf.NumSlots = nextSpill

	// Rewrite: replace vregs with registers; spilled operands go through
	// the scratch registers with explicit slot traffic.
	regOf := func(v int) (int, bool) {
		iv := &ivs[v]
		if !iv.live {
			return 0, true // never-used vreg; any register will do
		}
		if iv.reg >= 0 {
			return iv.reg, true
		}
		return iv.spillSlot, false
	}
	for _, b := range order {
		out := make([]*MInstr, 0, len(b.Instrs))
		for _, in := range b.Instrs {
			if in.Op == mDbg {
				if in.Sub == dbgVReg {
					if r, inReg := regOf(in.A); inReg {
						in.A = r
					} else {
						in.Sub = dbgSpill
						in.Imm = int64(r)
						in.A = -1
					}
				}
				out = append(out, in)
				continue
			}
			scratches := [3]int{scratch0, scratch1, scratch2}
			nextScratch := 0
			mapRead := func(v int) int {
				if v < 0 {
					return 0
				}
				r, inReg := regOf(v)
				if inReg {
					return r
				}
				s := scratches[nextScratch]
				nextScratch++
				out = append(out, &MInstr{
					Op: vm.OpLoadSlot, D: s, Imm: int64(r),
					A: -1, B: -1, C: -1,
				})
				return s
			}
			var spillStore *MInstr
			mapDef := func(v int) int {
				r, inReg := regOf(v)
				if inReg {
					return r
				}
				spillStore = &MInstr{
					Op: vm.OpStoreSlot, A: scratch0, Imm: int64(r),
					B: -1, C: -1, D: -1,
				}
				return scratch0
			}
			reads = readsOf(in, reads[:0])
			// Map reads in canonical operand order.
			switch len(reads) {
			case 0:
			default:
				// Rewrite each read operand field that holds a vreg.
				switch in.Op {
				case vm.OpMov, vm.OpNeg, vm.OpNot, vm.OpStoreSlot,
					vm.OpGStore, vm.OpNewArr, vm.OpLen, vm.OpArg,
					vm.OpPrint, vm.OpBr, vm.OpBinImm:
					in.A = mapRead(in.A)
				case vm.OpBin, vm.OpVBin, vm.OpALoad, vm.OpVLoad2:
					in.A = mapRead(in.A)
					in.B = mapRead(in.B)
				case vm.OpSelect, vm.OpAStore, vm.OpVStore2:
					in.A = mapRead(in.A)
					in.B = mapRead(in.B)
					in.C = mapRead(in.C)
				case vm.OpRet:
					if in.Sub != 0 {
						in.A = mapRead(in.A)
					}
				}
			}
			if d := defOf(in); d >= 0 {
				in.D = mapDef(d)
			} else if in.D >= 0 {
				in.D = 0
			}
			// Identity moves left over by coalescing disappear — but a
			// spilled-to-spilled move still needs its store: the value
			// was reloaded into scratch and must reach the destination
			// slot.
			if in.Op == vm.OpMov && in.A == in.D {
				if spillStore != nil {
					out = append(out, spillStore)
				}
				continue
			}
			out = append(out, in)
			if spillStore != nil {
				out = append(out, spillStore)
			}
		}
		b.Instrs = out
	}
}

// spillScore orders spill candidates: fewer weighted uses per covered
// position means cheaper to spill.
func spillScore(iv *interval) float64 {
	length := float64(iv.end-iv.start) + 1
	return iv.uses / length
}

// chainHints makes each vreg's coalescing hint the far end of its move
// chain (a->b->c moves all prefer one home). hint[v] is -1 for a vreg
// with no move partner. Vregs are visited in ascending order and each
// rewrite is visible to the chains walked after it, so the order is part
// of the result.
func chainHints(hint []int) {
	stamp := make([]int, len(hint)) // stamp[x] == v+1: x seen on v's chain
	for v, h := range hint {
		if h < 0 {
			continue
		}
		stamp[v] = v + 1
		for stamp[h] != v+1 {
			stamp[h] = v + 1
			next := hint[h]
			if next < 0 || stamp[next] == v+1 {
				break
			}
			h = next
		}
		hint[v] = h
	}
}

// liveness computes per-block live-in/out vreg sets over the machine IR,
// ignoring debug markers; both are indexed by position in mf.Blocks.
func liveness(mf *MFunc) (liveIn, liveOut []*dataflow.BitSet) {
	g := newMIRGraph(mf)
	use := make([]*dataflow.BitSet, len(mf.Blocks))
	def := make([]*dataflow.BitSet, len(mf.Blocks))
	var reads []int
	for bi, b := range mf.Blocks {
		u, d := dataflow.NewBitSet(mf.NumVRegs), dataflow.NewBitSet(mf.NumVRegs)
		for _, in := range b.Instrs {
			if in.Op == mDbg {
				continue
			}
			reads = readsOf(in, reads[:0])
			for _, r := range reads {
				if r >= 0 && !d.Has(r) {
					u.Set(r)
				}
			}
			if dd := defOf(in); dd >= 0 {
				d.Set(dd)
			}
		}
		use[bi], def[bi] = u, d
	}
	sol := dataflow.Solve(g, dataflow.Problem{
		Bits: mf.NumVRegs,
		Dir:  dataflow.Backward,
		Meet: dataflow.Union,
		Transfer: func(n int, atExit, atEntry *dataflow.BitSet) {
			atEntry.Copy(atExit)
			atEntry.AndNot(def[n])
			atEntry.UnionWith(use[n])
		},
	})
	// Backward: In is the fact at the block's exit, Out at its entry.
	return sol.Out, sol.In
}

// mirGraph adapts a machine function's block list to dataflow.Graph;
// nodes are positions in mf.Blocks, the entry first.
type mirGraph struct {
	succs, preds [][]int
}

func newMIRGraph(mf *MFunc) *mirGraph {
	at := make(map[*MBlock]int, len(mf.Blocks))
	for i, b := range mf.Blocks {
		at[b] = i
	}
	g := &mirGraph{
		succs: make([][]int, len(mf.Blocks)),
		preds: make([][]int, len(mf.Blocks)),
	}
	for i, b := range mf.Blocks {
		for _, s := range b.Succs {
			if si, ok := at[s]; ok {
				g.succs[i] = append(g.succs[i], si)
				g.preds[si] = append(g.preds[si], i)
			}
		}
	}
	return g
}

func (g *mirGraph) NumNodes() int     { return len(g.succs) }
func (g *mirGraph) Succs(n int) []int { return g.succs[n] }
func (g *mirGraph) Preds(n int) []int { return g.preds[n] }
