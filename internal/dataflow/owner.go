package dataflow

import "debugtuner/internal/vm"

// Storage names one ownership cell of a frame: a machine register or
// a frame slot. Exactly one field is >= 0.
type Storage struct {
	Reg  int
	Slot int
}

// RegStorage returns the storage cell of register r.
func RegStorage(r int) Storage { return Storage{Reg: r, Slot: -1} }

// SlotStorage returns the storage cell of frame slot s.
func SlotStorage(s int) Storage { return Storage{Reg: -1, Slot: s} }

// OwnerFacts is the solved owner reaching-definitions analysis for one
// function: for every address a and storage cell s, the set of owners
// (variable identities, plus "anonymous" for a value no tag claimed)
// that the machine's ownership state may hold in s when control sits
// at a — exactly the state a debugger observes, since breakpoints fire
// before the stopped instruction's pre-tags.
//
// The transfer function mirrors internal/vm's reference interpreter:
//
//   - pre-tags apply at instruction start;
//   - every register write clears the destination's owner, and a
//     post-tag on the same instruction reasserts it;
//   - OpStoreSlot clears the slot's owner;
//   - a call's own post-tags travel with the frame and land, with the
//     return value's register clear, when the callee returns — so in
//     this frame's flow they take effect at the call site; post-tags
//     on the callee's returns also apply to this frame, and join in
//     as weak updates over every return of the callee.
//
// Owner tags make this reaching-definitions analysis precise where a
// value-numbering one would have to approximate: the compiler itself
// asserts which variable each write materializes, so the lattice
// tracks variable identity directly instead of reconstructing it from
// value flow.
//
// Must-availability needs no second solve: ownership writes are strong
// updates to singletons, so a cell is must-owned by v exactly when its
// may-set collapsed to {v}.
//
// The solution keeps one may-state per basic block (its in-state);
// queries replay the block's instructions from there to the queried
// address through a forward cursor, so a run of queries in address order
// within a block costs one replay step each. The cursor makes an
// OwnerFacts unsafe for concurrent queries: every caller builds its own.
type OwnerFacts struct {
	cfg      *BinCFG
	numSlots int
	nOwners  int
	ownerIdx map[int32]int          // owner value -> dense index; anonymous 0 -> 0
	owners   []int32                // dense index -> owner value
	reach    []bool                 // per addr-Start
	blockIn  []*BitSet              // per block: may-state entering the block
	apply    func(s *BitSet, a int) // the transfer function of the instruction at a
	mustProl []bool                 // per addr-Start: prologue done on every path

	// The replay cursor: cur is the may-state entering curAddr, an
	// address of block curBlock (-1 before the first query).
	cur      *BitSet
	curBlock int
	curAddr  int
}

// NewOwnerFacts solves the owner analysis for function fnIdx of the
// binary. It never panics on corrupt input: out-of-range function
// records yield an empty fact set whose queries all return false.
func NewOwnerFacts(bin *vm.Binary, fnIdx int) *OwnerFacts {
	of := &OwnerFacts{ownerIdx: map[int32]int{0: 0}, owners: []int32{0}, nOwners: 1, curBlock: -1}
	if fnIdx < 0 || fnIdx >= len(bin.Funcs) {
		of.cfg = NewBinCFG(nil, 0, 0)
		return of
	}
	fn := &bin.Funcs[fnIdx]
	of.cfg = NewBinCFG(bin.Code, fn.Start, fn.End)
	of.numSlots = fn.NumSlots
	g := of.cfg

	// Owner universe: every variable identity a tag in this function —
	// or a post-tag on a return of a called function — can assert.
	retTags := map[int][]vm.OwnerTag{}
	calleeRetTags := func(idx int64) []vm.OwnerTag {
		if idx < 0 || idx >= int64(len(bin.Funcs)) {
			return nil
		}
		if ts, ok := retTags[int(idx)]; ok {
			return ts
		}
		var ts []vm.OwnerTag
		c := &bin.Funcs[idx]
		lo, hi := c.Start, c.End
		if lo < 0 {
			lo = 0
		}
		if hi > len(bin.Code) {
			hi = len(bin.Code)
		}
		for a := lo; a < hi; a++ {
			if bin.Code[a].Op != vm.OpRet {
				continue
			}
			for _, t := range bin.Code[a].Own {
				if !t.Pre {
					ts = append(ts, t)
				}
			}
		}
		retTags[int(idx)] = ts
		return ts
	}
	intern := func(v int32) {
		if _, ok := of.ownerIdx[v]; !ok {
			of.ownerIdx[v] = of.nOwners
			of.owners = append(of.owners, v)
			of.nOwners++
		}
	}
	for a := g.Start; a < g.End; a++ {
		for _, t := range bin.Code[a].Own {
			intern(t.Var)
		}
		if bin.Code[a].Op == vm.OpCall {
			for _, t := range calleeRetTags(bin.Code[a].Imm) {
				intern(t.Var)
			}
		}
	}

	nStor := vm.NumRegs + of.numSlots
	bitsWidth := nStor * of.nOwners
	setOwner := func(s *BitSet, st, oi int) {
		s.ClearRange(st*of.nOwners, (st+1)*of.nOwners)
		s.Set(st*of.nOwners + oi)
	}
	tagWeak0 := func(s *BitSet, t vm.OwnerTag) {
		oi := of.ownerIdx[t.Var]
		if t.Reg >= 0 && int(t.Reg) < vm.NumRegs {
			s.Set(int(t.Reg)*of.nOwners + oi)
		}
		if t.Slot >= 0 && int(t.Slot) < of.numSlots {
			s.Set((vm.NumRegs+int(t.Slot))*of.nOwners + oi)
		}
	}
	// tagGroup applies one instruction's pre- or post-tag group as a
	// strong update per storage cell, with every variable the group tags
	// for a cell kept as a co-owner. The machine itself keeps only the
	// last tag's owner, but multiple tags on one instruction and cell
	// mean several source variables share the value (`x = p0` aliasing),
	// and any of them is a right-value read: collapsing to the last
	// would brand the others' claims wrong when only the single-owner
	// bookkeeping, not the value, disagrees. The set stays a superset of
	// the machine's actual owner, which is the sound direction for both
	// may- and must-queries.
	tagGroup := func(s *BitSet, tags []vm.OwnerTag, pre bool) {
		for i, t := range tags {
			if t.Pre != pre {
				continue
			}
			killed := func(reg bool) bool {
				for _, u := range tags[:i] {
					if u.Pre != pre {
						continue
					}
					if reg && u.Reg == t.Reg || !reg && u.Slot == t.Slot {
						return true
					}
				}
				return false
			}
			if t.Reg >= 0 && int(t.Reg) < vm.NumRegs && !killed(true) {
				s.ClearRange(int(t.Reg)*of.nOwners, (int(t.Reg)+1)*of.nOwners)
			}
			if t.Slot >= 0 && int(t.Slot) < of.numSlots && !killed(false) {
				s.ClearRange((vm.NumRegs+int(t.Slot))*of.nOwners,
					(vm.NumRegs+int(t.Slot)+1)*of.nOwners)
			}
			tagWeak0(s, t)
		}
	}
	applyInstr := func(s *BitSet, a int) {
		in := &bin.Code[a]
		tagGroup(s, in.Own, true)
		switch in.Op {
		case vm.OpConst, vm.OpMov, vm.OpBin, vm.OpBinImm, vm.OpNeg,
			vm.OpNot, vm.OpSelect, vm.OpLoadSlot, vm.OpLoadParam,
			vm.OpGLoad, vm.OpNewArr, vm.OpALoad, vm.OpLen,
			vm.OpVLoad2, vm.OpVBin:
			setOwner(s, int(in.D), 0)
		case vm.OpStoreSlot:
			if in.Imm >= 0 && in.Imm < int64(of.numSlots) {
				setOwner(s, vm.NumRegs+int(in.Imm), 0)
			}
		case vm.OpCall:
			// The frame resumes after the callee returns: the return
			// register was rewritten (owner cleared), then the call's
			// deferred post-tags applied, then any post-tags sitting on
			// the callee's return instruction — the latter joined in
			// weakly since any of the callee's exits may have run.
			setOwner(s, int(in.D), 0)
			tagGroup(s, in.Own, false)
			for _, t := range calleeRetTags(in.Imm) {
				tagWeak0(s, t)
			}
		}
		if in.Op != vm.OpCall {
			tagGroup(s, in.Own, false)
		}
	}

	sol := Solve(g, Problem{
		Bits: bitsWidth,
		Dir:  Forward,
		Meet: Union,
		Boundary: func(s *BitSet) {
			// A fresh frame owns nothing: every cell holds an
			// anonymous value.
			for st := 0; st < nStor; st++ {
				s.Set(st * of.nOwners)
			}
		},
		Transfer: func(n int, in, out *BitSet) {
			out.Copy(in)
			lo, hi := g.BlockRange(n)
			for a := lo; a < hi; a++ {
				applyInstr(out, a)
			}
		},
	})
	of.blockIn, of.apply, of.cur = sol.In, applyInstr, NewBitSet(bitsWidth)

	prol := Solve(g, Problem{
		Bits: 1,
		Dir:  Forward,
		Meet: Intersect,
		Transfer: func(n int, in, out *BitSet) {
			out.Copy(in)
			lo, hi := g.BlockRange(n)
			for a := lo; a < hi; a++ {
				if bin.Code[a].Op == vm.OpProlog {
					out.Set(0)
				}
			}
		},
	})

	of.reach = g.ReachableAddrs()
	of.mustProl = make([]bool, g.End-g.Start)
	for n := 0; n < g.NumNodes(); n++ {
		lo, hi := g.BlockRange(n)
		prolDone := prol.In[n].Has(0)
		for a := lo; a < hi; a++ {
			of.mustProl[a-g.Start] = prolDone
			if bin.Code[a].Op == vm.OpProlog {
				prolDone = true
			}
		}
	}
	return of
}

// stateAt returns the may-state entering addr (inside the function
// range): the cursor, advanced to addr or replayed from the block's
// in-state. It stays valid until the next query.
func (of *OwnerFacts) stateAt(addr int) *BitSet {
	n := of.cfg.BlockOf(addr)
	if n != of.curBlock || addr < of.curAddr {
		of.cur.Copy(of.blockIn[n])
		of.curBlock, of.curAddr = n, of.cfg.blocks[n][0]
	}
	for ; of.curAddr < addr; of.curAddr++ {
		of.apply(of.cur, of.curAddr)
	}
	return of.cur
}

// CFG returns the function's recovered control-flow graph.
func (of *OwnerFacts) CFG() *BinCFG { return of.cfg }

// Reachable reports whether addr is statically reachable from the
// function entry.
func (of *OwnerFacts) Reachable(addr int) bool {
	if addr < of.cfg.Start || addr >= of.cfg.End {
		return false
	}
	return of.reach[addr-of.cfg.Start]
}

func (of *OwnerFacts) stIndex(st Storage) int {
	switch {
	case st.Reg >= 0 && st.Reg < vm.NumRegs:
		return st.Reg
	case st.Slot >= 0 && st.Slot < of.numSlots:
		return vm.NumRegs + st.Slot
	}
	return -1
}

// MayOwn reports whether the machine's ownership state may bind
// storage st to the variable with symbol ID symID when control enters
// addr — the observable state at a breakpoint there.
func (of *OwnerFacts) MayOwn(addr int, st Storage, symID int32) bool {
	si := of.stIndex(st)
	if si < 0 || addr < of.cfg.Start || addr >= of.cfg.End {
		return false
	}
	oi, ok := of.ownerIdx[symID+1]
	if !ok {
		return false
	}
	return of.stateAt(addr).Has(si*of.nOwners + oi)
}

// MustOwn reports whether every path to addr leaves storage st owned
// by the variable with symbol ID symID: the may-set collapsed to that
// single owner.
func (of *OwnerFacts) MustOwn(addr int, st Storage, symID int32) bool {
	si := of.stIndex(st)
	if si < 0 || addr < of.cfg.Start || addr >= of.cfg.End {
		return false
	}
	oi, ok := of.ownerIdx[symID+1]
	if !ok {
		return false
	}
	set := of.stateAt(addr)
	for o := 0; o < of.nOwners; o++ {
		if set.Has(si*of.nOwners+o) != (o == oi) {
			return false
		}
	}
	return true
}

// PreTagged reports whether addr's instruction carries pre-tags whose
// net effect binds storage st to symID — the emitter's pattern for a
// claim opening exactly at its witnessing instruction.
func (of *OwnerFacts) PreTagged(addr int, st Storage, symID int32) bool {
	if addr < of.cfg.Start || addr >= of.cfg.End {
		return false
	}
	for _, t := range of.cfg.Code[addr].Own {
		if !t.Pre || t.Var != symID+1 {
			continue
		}
		if st.Reg >= 0 && int(t.Reg) == st.Reg {
			return true
		}
		if st.Slot >= 0 && t.Slot >= 0 && int(t.Slot) == st.Slot {
			return true
		}
	}
	return false
}

// MustPrologueDone reports whether every path to addr has executed the
// function prologue — the precondition for slot and spill reads.
func (of *OwnerFacts) MustPrologueDone(addr int) bool {
	if addr < of.cfg.Start || addr >= of.cfg.End {
		return false
	}
	// Unreachable addresses solve to the vacuous "every path" top;
	// report false there rather than a claim about code that never runs.
	return of.reach[addr-of.cfg.Start] && of.mustProl[addr-of.cfg.Start]
}

// MayOwners returns the owner values (symbol ID + 1, or 0 for an
// anonymous write) that may occupy storage st entering addr, in
// ascending order. It is a diagnostic/testing accessor.
func (of *OwnerFacts) MayOwners(addr int, st Storage) []int32 {
	si := of.stIndex(st)
	if si < 0 || addr < of.cfg.Start || addr >= of.cfg.End {
		return nil
	}
	var out []int32
	set := of.stateAt(addr)
	for o := 0; o < of.nOwners; o++ {
		if set.Has(si*of.nOwners + o) {
			out = append(out, of.owners[o])
		}
	}
	sortInt32(out)
	return out
}

func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
