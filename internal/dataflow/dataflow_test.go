package dataflow

import (
	"testing"

	"debugtuner/internal/vm"
)

func regTag(r int, varID int32, pre bool) vm.OwnerTag {
	return vm.OwnerTag{Reg: int8(r), Slot: -1, Var: varID, Pre: pre}
}

func slotTag(s int, varID int32, pre bool) vm.OwnerTag {
	return vm.OwnerTag{Reg: -1, Slot: int32(s), Var: varID, Pre: pre}
}

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(70)
	s.Set(0)
	s.Set(69)
	if !s.Has(0) || !s.Has(69) || s.Has(33) {
		t.Fatalf("set/has broken: %v", s)
	}
	s.Set(1000) // out of range: ignored
	if s.Has(1000) {
		t.Fatalf("out-of-range Set landed")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
	o := NewBitSet(70)
	o.Fill(70)
	if o.Count() != 70 {
		t.Fatalf("fill count = %d, want 70", o.Count())
	}
	if !o.IntersectWith(s) || o.Count() != 2 {
		t.Fatalf("intersect: %d bits", o.Count())
	}
	var got []int
	o.ForEach(func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 0 || got[1] != 69 {
		t.Fatalf("foreach = %v", got)
	}
}

// buildBin links the given per-function instruction lists into one
// binary with sequential code ranges.
func buildBin(numSlots int, fns ...[]vm.Instr) *vm.Binary {
	bin := &vm.Binary{}
	for i, code := range fns {
		start := len(bin.Code)
		bin.Code = append(bin.Code, code...)
		bin.Funcs = append(bin.Funcs, vm.FuncInfo{
			Name: string(rune('f' + i)), Start: start, End: len(bin.Code),
			NumSlots: numSlots,
		})
	}
	return bin
}

func TestBinCFGAndReachability(t *testing.T) {
	// 0: Prolog; 1: Const r1; 2: Br r1 -> 5; 3: Const r2; 4: Jmp 6;
	// 5: Const r2; 6: Mov r3 = r2; 7: Ret r3; 8..9: unreachable tail.
	code := []vm.Instr{
		{Op: vm.OpProlog},
		{Op: vm.OpConst, D: 1, Imm: 5},
		{Op: vm.OpBr, A: 1, Imm: 5},
		{Op: vm.OpConst, D: 2, Imm: 1},
		{Op: vm.OpJmp, Imm: 6},
		{Op: vm.OpConst, D: 2, Imm: 2},
		{Op: vm.OpMov, D: 3, A: 2},
		{Op: vm.OpRet, Sub: 1, A: 3},
		{Op: vm.OpConst, D: 4, Imm: 9},
		{Op: vm.OpRet, Sub: 1, A: 4},
	}
	g := NewBinCFG(code, 0, len(code))
	if g.NumNodes() != 5 {
		t.Fatalf("blocks = %d, want 5", g.NumNodes())
	}
	if g.BlockOf(0) != 0 {
		t.Fatalf("entry block = %d", g.BlockOf(0))
	}
	reach := g.ReachableAddrs()
	for a := 0; a <= 7; a++ {
		if !reach[a] {
			t.Errorf("addr %d should be reachable", a)
		}
	}
	for a := 8; a <= 9; a++ {
		if reach[a] {
			t.Errorf("addr %d should be unreachable", a)
		}
	}
}

func TestOwnerFactsJoinsAndMust(t *testing.T) {
	// Variable A has symID 0 (owner value 1), B symID 1 (owner 2),
	// C symID 2 (owner 3, only in unreachable code).
	code := []vm.Instr{
		{Op: vm.OpProlog},
		{Op: vm.OpConst, D: 1, Imm: 5, Own: []vm.OwnerTag{regTag(1, 1, false)}},
		{Op: vm.OpBr, A: 1, Imm: 5},
		{Op: vm.OpConst, D: 2, Imm: 1, Own: []vm.OwnerTag{regTag(2, 2, false)}},
		{Op: vm.OpJmp, Imm: 6},
		{Op: vm.OpConst, D: 2, Imm: 2, Own: []vm.OwnerTag{regTag(2, 1, false)}},
		{Op: vm.OpMov, D: 3, A: 2, Own: []vm.OwnerTag{regTag(5, 9, true)}},
		{Op: vm.OpRet, Sub: 1, A: 3},
		{Op: vm.OpConst, D: 4, Imm: 9, Own: []vm.OwnerTag{regTag(4, 3, false)}},
		{Op: vm.OpRet, Sub: 1, A: 4},
	}
	bin := buildBin(0, code)
	of := NewOwnerFacts(bin, 0)

	if !of.Reachable(7) || of.Reachable(8) {
		t.Fatalf("reachability wrong")
	}
	// Before the branch r1 is owned by A on every path.
	if !of.MustOwn(2, RegStorage(1), 0) {
		t.Errorf("r1 should be must-owned by sym 0 at addr 2")
	}
	// At the join r2 may be owned by A or by B, so neither is a must.
	if !of.MayOwn(6, RegStorage(2), 0) || !of.MayOwn(6, RegStorage(2), 1) {
		t.Errorf("r2 at join should may-own syms 0 and 1: %v",
			of.MayOwners(6, RegStorage(2)))
	}
	if of.MustOwn(6, RegStorage(2), 0) || of.MustOwn(6, RegStorage(2), 1) {
		t.Errorf("r2 at join must own neither")
	}
	// The untagged Mov leaves r3 anonymous.
	if got := of.MayOwners(7, RegStorage(3)); len(got) != 1 || got[0] != 0 {
		t.Errorf("r3 at ret = %v, want [0]", got)
	}
	// The unreachable tag never reaches reachable code.
	if of.MayOwn(7, RegStorage(4), 2) {
		t.Errorf("unreachable tag leaked into reachable state")
	}
	// Prologue: not done entering addr 0, done after.
	if of.MustPrologueDone(0) {
		t.Errorf("prologue done before OpProlog")
	}
	if !of.MustPrologueDone(1) || !of.MustPrologueDone(7) {
		t.Errorf("prologue should be done after addr 0")
	}
	// Pre-tag effect at the carrying instruction.
	if !of.PreTagged(6, RegStorage(5), 8) {
		t.Errorf("pre-tag at addr 6 not seen")
	}
	if of.MayOwn(6, RegStorage(5), 8) {
		t.Errorf("pre-tag must not be part of the observable in-state")
	}
	if !of.MayOwn(7, RegStorage(5), 8) {
		t.Errorf("pre-tag should flow to the next address")
	}
}

func TestCoOwnersOnOneInstruction(t *testing.T) {
	// Two tags on one instruction and register mean two source
	// variables share the value (`x = p0`); both must stay observable,
	// and neither may be promoted to a must-fact.
	code := []vm.Instr{
		{Op: vm.OpLoadParam, D: 0,
			Own: []vm.OwnerTag{regTag(0, 6, false), regTag(0, 7, false)}},
		{Op: vm.OpRet},
	}
	bin := buildBin(0, code)
	of := NewOwnerFacts(bin, 0)
	if !of.MayOwn(1, RegStorage(0), 5) || !of.MayOwn(1, RegStorage(0), 6) {
		t.Fatalf("co-owners lost: %v", of.MayOwners(1, RegStorage(0)))
	}
	if of.MustOwn(1, RegStorage(0), 5) || of.MustOwn(1, RegStorage(0), 6) {
		t.Fatalf("shared cell must not be a must-fact for either owner")
	}
	if of.MayOwn(1, RegStorage(0), 0) {
		t.Fatalf("the tag group should strongly replace the anonymous owner")
	}
}

func TestOwnerFactsBackEdgeIntoEntry(t *testing.T) {
	// The entry block is also a loop header: its in-state must meet the
	// fresh-frame boundary with the back edge.
	code := []vm.Instr{
		{Op: vm.OpNeg, D: 1, A: 1, Own: []vm.OwnerTag{regTag(1, 7, false)}},
		{Op: vm.OpBr, A: 1, Imm: 0},
		{Op: vm.OpRet},
	}
	bin := buildBin(0, code)
	of := NewOwnerFacts(bin, 0)
	if got := of.MayOwners(0, RegStorage(1)); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("entry in-state = %v, want [0 7]", got)
	}
	if !of.MustOwn(1, RegStorage(1), 6) {
		t.Fatalf("r1 should be must-owned by sym 6 after addr 0")
	}
}

func TestMustPrologueSurvivesLoop(t *testing.T) {
	// Optimistic must-iteration: the back edge must not strip the
	// prologue fact from its own loop header.
	code := []vm.Instr{
		{Op: vm.OpProlog},
		{Op: vm.OpConst, D: 1},
		{Op: vm.OpBinImm, D: 1, A: 1, Imm: 1},
		{Op: vm.OpBr, A: 1, Imm: 2},
		{Op: vm.OpRet},
	}
	bin := buildBin(1, code)
	of := NewOwnerFacts(bin, 0)
	for a := 1; a <= 4; a++ {
		if !of.MustPrologueDone(a) {
			t.Fatalf("prologue fact lost at addr %d", a)
		}
	}
}

func TestOwnerFactsSlotsAndCalls(t *testing.T) {
	callee := []vm.Instr{
		{Op: vm.OpConst, D: 1, Imm: 1},
		{Op: vm.OpRet, Sub: 1, A: 1, Own: []vm.OwnerTag{regTag(2, 9, false)}},
	}
	caller := []vm.Instr{
		{Op: vm.OpProlog},
		{Op: vm.OpConst, D: 1, Imm: 4},
		{Op: vm.OpStoreSlot, A: 1, Imm: 0, Own: []vm.OwnerTag{slotTag(0, 4, false)}},
		{Op: vm.OpStoreSlot, A: 1, Imm: 0},
		{Op: vm.OpCall, D: 3, Imm: 0, Own: []vm.OwnerTag{regTag(3, 5, false)}},
		{Op: vm.OpRet},
	}
	bin := buildBin(1, callee, caller)
	of := NewOwnerFacts(bin, 1)
	base := bin.Funcs[1].Start // caller addresses are offset by the callee

	if !of.MustOwn(base+3, SlotStorage(0), 3) {
		t.Errorf("slot 0 should be must-owned by sym 3 after the tagged store")
	}
	if got := of.MayOwners(base+4, SlotStorage(0)); len(got) != 1 || got[0] != 0 {
		t.Errorf("untagged store should clear slot ownership: %v", got)
	}
	// The call's own post-tag lands strongly at the call site.
	if !of.MustOwn(base+5, RegStorage(3), 4) {
		t.Errorf("call post-tag should strongly own the return register")
	}
	// Post-tags on the callee's return apply to this frame too — but
	// only weakly, joined over every possible exit.
	if !of.MayOwn(base+5, RegStorage(2), 8) {
		t.Errorf("callee ret-tag should weakly reach the caller")
	}
	if of.MustOwn(base+5, RegStorage(2), 8) {
		t.Errorf("callee ret-tag must not become a must-fact")
	}
}

func TestLivenessBackward(t *testing.T) {
	code := []vm.Instr{
		{Op: vm.OpBr, A: 5, Imm: 3},
		{Op: vm.OpMov, D: 6, A: 1},
		{Op: vm.OpJmp, Imm: 4},
		{Op: vm.OpMov, D: 6, A: 2},
		{Op: vm.OpRet, Sub: 1, A: 6},
	}
	lv := NewLiveness(code, 0, len(code))
	for _, r := range []int{5, 1, 2} {
		if !lv.LiveIn(0, r) {
			t.Errorf("r%d should be live at entry", r)
		}
	}
	if lv.LiveIn(0, 6) {
		t.Errorf("r6 is defined on every path before use; not live at entry")
	}
	if !lv.LiveIn(4, 6) {
		t.Errorf("r6 live at the return")
	}
	if lv.LiveIn(3, 1) {
		t.Errorf("r1 not live on the taken path")
	}
}

func TestEmptyAndCorruptInput(t *testing.T) {
	of := NewOwnerFacts(&vm.Binary{}, 0)
	if of.MayOwn(0, RegStorage(0), 0) || of.Reachable(0) || of.MustPrologueDone(0) {
		t.Fatalf("empty facts should answer false")
	}
	// Function record pointing outside the code must not panic.
	bin := &vm.Binary{
		Code:  []vm.Instr{{Op: vm.OpRet}},
		Funcs: []vm.FuncInfo{{Name: "f", Start: 0, End: 99, NumSlots: 2}},
	}
	of = NewOwnerFacts(bin, 0)
	if !of.Reachable(0) {
		t.Fatalf("clamped range should keep addr 0")
	}
	// Call to an out-of-range function index.
	bin2 := &vm.Binary{
		Code: []vm.Instr{
			{Op: vm.OpCall, D: 1, Imm: 42},
			{Op: vm.OpRet},
		},
		Funcs: []vm.FuncInfo{{Name: "f", Start: 0, End: 2}},
	}
	_ = NewOwnerFacts(bin2, 0)
}

// TestClearRangeMatchesBitByBit: the word-at-a-time ClearRange must
// equal clearing bit by bit for every range over a three-word set,
// including ranges that start below zero or run past the last word.
func TestClearRangeMatchesBitByBit(t *testing.T) {
	const width = 192
	fill := func() *BitSet {
		s := NewBitSet(width)
		for i := 0; i < width; i++ {
			if i%3 != 1 {
				s.Set(i)
			}
		}
		return s
	}
	for lo := -2; lo <= 194; lo++ {
		for hi := -2; hi <= 194; hi++ {
			got, want := fill(), fill()
			got.ClearRange(lo, hi)
			for i := lo; i < hi; i++ {
				want.Clear(i)
			}
			if !got.Equal(want) {
				t.Fatalf("ClearRange(%d, %d) = %x, want %x", lo, hi, got.words, want.words)
			}
		}
	}
}
