package vm

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// breakObs is what an OnBreak handler can observe at a stop.
type breakObs struct {
	Addr     int
	Owner    [NumRegs]int32
	SlotOwn  []int32
	Prologue bool
}

// vmState snapshots everything the machine model observably computes
// over a sequence of Calls on one machine.
type vmState struct {
	Rets    []int64
	Errs    []string
	Out     []int64
	Cycles  int64
	Steps   int64
	Stall   int64
	ICM     int64
	Taken   int64
	Fall    int64
	Jmps    int64
	Slots   int64
	Samples []int
	Edges   []uint64 // sorted edge<<20 | count, so equal maps compare equal
	Breaks  []breakObs
}

// Breakpoint protocols a run can install.
const (
	noBreaks = iota
	// lineBreaks is the debugger's temporary-breakpoint protocol: a
	// breakpoint on every address of every line, and a stop on a line
	// releases all of its addresses.
	lineBreaks
	// allBreaks stops before every instruction and never clears.
	allBreaks
)

type runOpts struct {
	budget      int64
	sampleEvery int64
	coverage    bool
	breaks      int
}

type call struct {
	name string
	args []int64
}

func runEngine(bin *Binary, eng Engine, o runOpts, calls ...call) vmState {
	return runEngineOn(New(bin), eng, o, calls...)
}

func runEngineOn(m *Machine, eng Engine, o runOpts, calls ...call) vmState {
	bin := m.Bin
	m.Engine = eng
	if o.budget > 0 {
		m.StepBudget = o.budget
	}
	m.SampleEvery = o.sampleEvery
	if o.coverage {
		m.EnableCoverage()
	}
	var st vmState
	lines := map[int32][]int{}
	switch o.breaks {
	case lineBreaks:
		for a, in := range bin.Code {
			if in.Line > 0 {
				lines[in.Line] = append(lines[in.Line], a)
				m.SetBreak(a)
			}
		}
	case allBreaks:
		for a := range bin.Code {
			m.SetBreak(a)
		}
	}
	if o.breaks != noBreaks {
		m.OnBreak = func(m *Machine, addr int) {
			fr := m.Frame()
			st.Breaks = append(st.Breaks, breakObs{
				Addr: addr, Owner: fr.Owner,
				SlotOwn:  append([]int32(nil), fr.SlotOwn...),
				Prologue: fr.PrologueDone,
			})
			for _, a := range lines[bin.Code[addr].Line] {
				m.ClearBreak(a)
			}
		}
	}
	for _, c := range calls {
		ret, err := m.Call(c.name, c.args...)
		if err != nil {
			st.Errs = append(st.Errs, err.Error())
		} else {
			st.Rets = append(st.Rets, ret)
		}
	}
	st.Out = m.Output()
	st.Cycles, st.Steps, st.Stall, st.ICM = m.Cycles, m.Steps, m.StallCycles, m.ICacheMisses
	st.Taken, st.Fall, st.Jmps, st.Slots = m.TakenBr, m.FallBr, m.JmpsRun, m.SlotOpsRun
	st.Samples = m.Samples
	for e, n := range m.CovEdges {
		st.Edges = append(st.Edges, e<<20|uint64(n))
	}
	sort.Slice(st.Edges, func(i, j int) bool { return st.Edges[i] < st.Edges[j] })
	return st
}

// instrumentations are the run options the block core must match the
// reference under: plain, each sampling period, and the breakpoint
// protocols with coverage on.
var instrumentations = []runOpts{
	{},
	{sampleEvery: 1},
	{sampleEvery: 7, coverage: true},
	{sampleEvery: 997, coverage: true, breaks: lineBreaks},
	{breaks: allBreaks},
	{coverage: true, breaks: lineBreaks},
}

// checkEngines asserts the block core agrees with the reference on the
// complete observable machine state under every instrumentation, and
// returns the plain reference state.
func checkEngines(t *testing.T, bin *Binary, budget int64, calls ...call) vmState {
	t.Helper()
	var plain vmState
	for i, o := range instrumentations {
		o.budget = budget
		ref := runEngine(bin, EngineReference, o, calls...)
		got := runEngine(bin, EngineAuto, o, calls...)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%+v: block core diverges from reference:\n ref %+v\n got %+v", o, ref, got)
		}
		if i == 0 {
			plain = ref
		}
	}
	return plain
}

func TestEnginesAgreeOnTinyBinary(t *testing.T) {
	checkEngines(t, tinyBinary(), 0, call{name: "main"})
	checkEngines(t, tinyBinary(), 0, call{"inc", []int64{41}})
	// Several Calls on one machine: load-use and i-cache state carry over.
	checkEngines(t, tinyBinary(), 0, call{name: "main"}, call{"inc", []int64{1}}, call{name: "main"})
}

// fusionBinary packs short blocks and the hazards block boundaries must
// preserve: a jump landing mid-run of straight-line code, and load-use
// stalls inside a block, into a block and across a return.
func fusionBinary() *Binary {
	return &Binary{
		Funcs: []FuncInfo{
			{Name: "main", Start: 0, End: 24, NumSlots: 4},
			{Name: "peek", Start: 24, End: 26},
		},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 9, Line: 1},                      // 1
			{Op: OpStoreSlot, A: 0, Imm: 0, Line: 2},                  // 2: jump target (loop head)
			{Op: OpLoadSlot, D: 1, Imm: 0, Line: 2},                   // 3: intra-block stall into 4
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 1, Line: 3},  // 4
			{Op: OpBinImm, Sub: BinRem, A: 1, D: 2, Imm: 5, Line: 3},  // 5
			{Op: OpStoreSlot, A: 2, Imm: 1, Line: 4},                  // 6
			{Op: OpLoadSlot, D: 2, Imm: 1, Line: 4},                   // 7: intra-block stall into 8
			{Op: OpBin, Sub: BinAdd, A: 2, B: 1, D: 3, Line: 5},       // 8
			{Op: OpPrint, A: 3, Line: 5},                              // 9
			{Op: OpBinImm, Sub: BinSub, A: 0, D: 0, Imm: 1, Line: 6},  // 10
			{Op: OpBr, A: 0, Imm: 2, Line: 6},                         // 11: loop back edge
			{Op: OpLoadSlot, D: 1, Imm: 0, Line: 7},                   // 12
			{Op: OpBin, Sub: BinLt, A: 1, B: 0, D: 2, Line: 7},        // 13: reads loaded r1 -> stall
			{Op: OpBr, A: 2, Imm: 16, Line: 7},                        // 14
			{Op: OpPrint, A: 1, Line: 8},                              // 15
			{Op: OpConst, D: 3, Imm: 77, Line: 9},                     // 16: jump target
			{Op: OpStoreSlot, A: 3, Imm: 2, Line: 9},                  // 17
			{Op: OpLoadSlot, D: 3, Imm: 2, Line: 10},                  // 18
			{Op: OpLoadSlot, D: 1, Imm: 0, Line: 10},                  // 19
			{Op: OpBinImm, Sub: BinMul, A: 3, D: 3, Imm: 2, Line: 11}, // 20
			{Op: OpBinImm, Sub: BinAdd, A: 3, D: 3, Imm: 1, Line: 11}, // 21
			{Op: OpGLoad, D: 3, Imm: 0, Line: 12},                     // 22: load right before the return
			{Op: OpRet, Line: 12},                                     // 23
			// peek: reads r3 first, stalling on main's last load.
			{Op: OpPrint, A: 3, Line: 13},
			{Op: OpRet, Line: 13},
		},
		Globals: []GlobalInfo{{Name: "g", Init: 5}},
	}
}

func TestEnginesAgreeOnFusionPatterns(t *testing.T) {
	st := checkEngines(t, fusionBinary(), 0, call{name: "main"})
	if len(st.Errs) != 0 {
		t.Fatalf("run failed: %v", st.Errs)
	}
	if st.Stall == 0 {
		t.Error("fusion binary should exercise load-use stalls")
	}
	if st.Taken == 0 || st.Fall == 0 {
		t.Error("fusion binary should exercise both branch directions")
	}
	// The load before main's outermost return stalls the next Call's
	// first instruction, which reads its register.
	two := checkEngines(t, fusionBinary(), 0, call{name: "main"}, call{name: "peek"})
	if two.Stall != st.Stall+costLoadUse {
		t.Errorf("stall cycles %d, want %d: load state must carry across Calls", two.Stall, st.Stall+costLoadUse)
	}
}

// TestJumpIntoPairTail locks block formation at jump targets: a branch
// that lands in the middle of straight-line code must start a block
// there, not skip the target or re-run its predecessor.
func TestJumpIntoPairTail(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 8, NumSlots: 1}},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 5},
			{Op: OpStoreSlot, A: 0, Imm: 0},
			{Op: OpJmp, Imm: 5},                              // jumps past the load below
			{Op: OpLoadSlot, D: 1, Imm: 0},                   // must NOT run on the jump path
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 10}, // jump target
			{Op: OpPrint, A: 1},
			{Op: OpRet},
		},
	}
	st := checkEngines(t, bin, 0, call{name: "main"})
	if len(st.Out) != 1 || st.Out[0] != 10 {
		t.Fatalf("output = %v, want [10] (the skipped load must not run)", st.Out)
	}
}

// TestStepBudgetMidPair sweeps the step budget across every step of a
// run, so budgets expire inside blocks as well as on their edges: the
// block core must fail at the same step with the same state.
func TestStepBudgetMidPair(t *testing.T) {
	for _, bin := range []*Binary{fusionBinary(), tinyBinary()} {
		full := runEngine(bin, EngineReference, runOpts{}, call{name: "main"})
		for budget := int64(1); budget <= full.Steps+1; budget++ {
			for _, o := range instrumentations {
				o.budget = budget
				ref := runEngine(bin, EngineReference, o, call{name: "main"}, call{name: "main"})
				got := runEngine(bin, EngineAuto, o, call{name: "main"}, call{name: "main"})
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("budget %d %+v: block core diverges:\n ref %+v\n got %+v", budget, o, ref, got)
				}
			}
		}
	}
	if !errors.Is(ErrStepBudget, ErrBudget) {
		t.Fatal("sentinel wiring broken")
	}
}

// TestOwnerTagsAcrossFusion locks tag ordering inside a block: an
// instruction's post tags and the next one's pre tags must land exactly
// as in the reference loop, whether or not the block stops.
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
	for _, eng := range []Engine{EngineReference, EngineAuto} {
		m := New(bin)
		m.Engine = eng
		var fr *Frame
		m.OnBreak = func(mm *Machine, addr int) { fr = mm.Frame() }
		m.SetBreak(4)
		if _, err := m.Call("main"); err != nil {
			t.Fatal(err)
		}
		if fr == nil {
			t.Fatalf("engine %d: break at ret never fired", eng)
		}
		if fr.Owner[0] != 4 || fr.Owner[1] != 6 || fr.SlotOwn[0] != 4 {
			t.Errorf("engine %d: owners = r0:%d r1:%d s0:%d, want 4/6/4",
				eng, fr.Owner[0], fr.Owner[1], fr.SlotOwn[0])
		}
	}
}

// taggedCallBinary has tags on calls, returns and clobbered registers
// across frames, plus an array allocation, so the owner bookkeeping of
// every terminator is observable at breakpoints in the caller.
func taggedCallBinary() *Binary {
	tag := func(reg int8, slot int32, v int32, pre bool) []OwnerTag {
		return []OwnerTag{{Reg: reg, Slot: slot, Var: v, Pre: pre}}
	}
	return &Binary{
		Funcs: []FuncInfo{
			{Name: "main", Start: 0, End: 12, NumSlots: 3},
			{Name: "leaf", Start: 12, End: 17, NumSlots: 1, NParams: 1},
		},
		Code: []Instr{
			{Op: OpProlog, Line: 1},
			{Op: OpConst, D: 0, Imm: 4, Line: 2, Own: tag(0, -1, 1, false)},
			{Op: OpStoreSlot, A: 0, Imm: 1, Line: 2, Own: tag(-1, 1, 1, false)},
			{Op: OpNewArr, A: 0, D: 5, Line: 3, Own: tag(5, -1, 2, false)},
			{Op: OpArg, A: 0, Line: 4, Own: tag(0, 2, 3, true)},
			{Op: OpCall, D: 1, Imm: 1, Line: 4, Own: []OwnerTag{{Reg: 1, Slot: -1, Var: 4}, {Reg: 0, Slot: -1, Var: 9, Pre: true}}},
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 0, Imm: 1, Line: 5},
			{Op: OpLen, A: 5, D: 2, Line: 5, Own: tag(2, 0, 5, false)},
			{Op: OpPrint, A: 0, Line: 6},
			{Op: OpPrint, A: 2, Line: 6},
			{Op: OpLoadSlot, D: 3, Imm: 1, Line: 7},
			{Op: OpRet, Sub: 1, A: 3, Line: 7},
			// leaf:
			{Op: OpProlog, Line: 10},
			{Op: OpLoadParam, D: 0, Imm: 0, Line: 11, Own: tag(0, -1, 7, false)},
			{Op: OpBinImm, Sub: BinMul, A: 0, D: 0, Imm: 3, Line: 11},
			{Op: OpStoreSlot, A: 0, Imm: 0, Line: 12, Own: tag(0, 0, 8, true)},
			{Op: OpRet, Sub: 1, A: 0, Line: 12, Own: tag(1, -1, 6, false)},
		},
	}
}

func TestEnginesAgreeOnTaggedCalls(t *testing.T) {
	st := checkEngines(t, taggedCallBinary(), 0, call{name: "main"}, call{name: "main"}, call{"leaf", []int64{2}})
	if len(st.Errs) != 0 || len(st.Out) != 4 {
		t.Fatalf("errs %v, out %v", st.Errs, st.Out)
	}
	// A heap budget trips inside the first block after the call.
	bin := taggedCallBinary()
	for _, hb := range []int64{0, 3, 4} {
		for _, o := range instrumentations {
			run := func(eng Engine) vmState {
				m := New(bin)
				m.HeapBudget = hb
				return runEngineOn(m, eng, o, call{name: "main"}, call{name: "main"})
			}
			if ref, got := run(EngineReference), run(EngineAuto); !reflect.DeepEqual(got, ref) {
				t.Errorf("heap budget %d %+v: block core diverges:\n ref %+v\n got %+v", hb, o, ref, got)
			}
		}
	}
}

// TestSampleBoundarySweep moves the sample boundary across every cycle
// of a loop whose blocks have an entry stall and a large-frame prolog
// ahead of other instructions, so each cost that can precede a block's
// last charge decides, at some period, which instruction is sampled.
func TestSampleBoundarySweep(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{
			{Name: "main", Start: 0, End: 14, NumSlots: 2},
			{Name: "f", Start: 14, End: 18, NumSlots: 80, NParams: 1},
		},
		Code: []Instr{
			{Op: OpProlog},
			{Op: OpConst, D: 0, Imm: 6},
			{Op: OpStoreSlot, A: 0, Imm: 0},
			{Op: OpLoadSlot, D: 1, Imm: 0},                  // 3: loop head
			{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 0}, // 4: leader, stalls on 3
			{Op: OpArg, A: 1},                               // 5
			{Op: OpCall, D: 2, Imm: 1},                      // 6
			{Op: OpPrint, A: 2},                             // 7
			{Op: OpLoadSlot, D: 1, Imm: 0},                  // 8
			{Op: OpBinImm, Sub: BinSub, A: 1, D: 1, Imm: 1}, // 9
			{Op: OpStoreSlot, A: 1, Imm: 0},                 // 10
			{Op: OpBr, A: 1, Imm: 3},                        // 11
			{Op: OpRet},                                     // 12
			{Op: OpJmp, Imm: 4},                             // 13: makes 4 a leader
			{Op: OpProlog},                                  // 14: f, 12 cycles
			{Op: OpLoadParam, D: 0, Imm: 0},                 // 15
			{Op: OpBinImm, Sub: BinMul, A: 0, D: 0, Imm: 3}, // 16
			{Op: OpRet, Sub: 1, A: 0},                       // 17
		},
	}
	// A block that stalls on entry and misses on its only line: g sits
	// 4096 instructions after it, in the same i-cache set.
	evict := &Binary{
		Funcs: []FuncInfo{
			{Name: "main", Start: 0, End: 24, NumSlots: 1},
			{Name: "g", Start: 4112, End: 4115, NParams: 1},
		},
		Code: make([]Instr, 4115),
	}
	copy(evict.Code, []Instr{
		{Op: OpProlog},
		{Op: OpConst, D: 0, Imm: 5},
		{Op: OpStoreSlot, A: 0, Imm: 0},
		{Op: OpJmp, Imm: 15},
		{Op: OpJmp, Imm: 16}, // 4: unreachable, makes 16 a leader
	})
	copy(evict.Code[15:], []Instr{
		{Op: OpLoadSlot, D: 1, Imm: 0},                  // 15: loop head, line 0
		{Op: OpBinImm, Sub: BinAdd, A: 1, D: 1, Imm: 0}, // 16: line 1, stalls on 15
		{Op: OpArg, A: 1},
		{Op: OpCall, D: 2, Imm: 1},
		{Op: OpLoadSlot, D: 1, Imm: 0},
		{Op: OpBinImm, Sub: BinSub, A: 1, D: 1, Imm: 1},
		{Op: OpStoreSlot, A: 1, Imm: 0},
		{Op: OpBr, A: 1, Imm: 15},
		{Op: OpRet},
	})
	copy(evict.Code[4112:], []Instr{
		{Op: OpProlog},
		{Op: OpLoadParam, D: 0, Imm: 0},
		{Op: OpRet, Sub: 1, A: 0},
	})
	// A loop whose jump links two blocks in the same i-cache set, so the
	// chain misses on both lines every iteration.
	chain := &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 4104, NumSlots: 1}},
		Code:  make([]Instr, 4104),
	}
	copy(chain.Code, []Instr{
		{Op: OpConst, D: 0, Imm: 6},
		{Op: OpStoreSlot, A: 0, Imm: 0},
		{Op: OpLoadSlot, D: 1, Imm: 0}, // 2: loop head, line 0
		{Op: OpJmp, Imm: 4100},
	})
	copy(chain.Code[4100:], []Instr{
		{Op: OpBinImm, Sub: BinSub, A: 1, D: 1, Imm: 1}, // line 256, set 0
		{Op: OpStoreSlot, A: 1, Imm: 0},
		{Op: OpBr, A: 1, Imm: 2},
		{Op: OpRet},
	})
	for _, b := range []*Binary{bin, evict, chain} {
		for period := int64(1); period <= 90; period++ {
			o := runOpts{sampleEvery: period}
			ref := runEngine(b, EngineReference, o, call{name: "main"}, call{name: "main"})
			got := runEngine(b, EngineAuto, o, call{name: "main"}, call{name: "main"})
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("period %d: block core diverges:\n ref %+v\n got %+v", period, ref, got)
			}
		}
	}
}

// TestJumpCycleTrapsOnBudget runs two blocks that only jump to each
// other: their links must not chain forever, and the budget trap must
// land on the same step as the reference's. A jump into a lone return
// checks the load state that return leaves for the next Call.
func TestJumpCycleTrapsOnBudget(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{
			{Name: "spin", Start: 0, End: 3},
			{Name: "load", Start: 3, End: 5},
			{Name: "hop", Start: 5, End: 8},
			{Name: "use", Start: 8, End: 10},
		},
		Code: []Instr{
			{Op: OpJmp, Imm: 2},
			{Op: OpNop},
			{Op: OpJmp, Imm: 0},
			{Op: OpGLoad, D: 1, Imm: 0}, // load: leaves r1's load pending
			{Op: OpRet},
			{Op: OpJmp, Imm: 7}, // hop: the jump clears it
			{Op: OpNop},
			{Op: OpRet},
			{Op: OpPrint, A: 1}, // use: stalls only if it is still pending
			{Op: OpRet},
		},
		Globals: []GlobalInfo{{Name: "g", Init: 3}},
	}
	for _, budget := range []int64{1, 2, 7, 100} {
		st := checkEngines(t, bin, budget, call{name: "load"}, call{name: "hop"}, call{name: "use"}, call{name: "spin"})
		if len(st.Errs) == 0 {
			t.Fatalf("budget %d: spin returned", budget)
		}
		if budget == 100 && st.Stall != 0 {
			t.Errorf("use stalled on a load the jump in hop retired")
		}
	}
}

// TestBadOpcodeTraps locks error identity for an unknown opcode inside
// a block.
func TestBadOpcodeTraps(t *testing.T) {
	bin := &Binary{
		Funcs: []FuncInfo{{Name: "main", Start: 0, End: 4}},
		Code: []Instr{
			{Op: OpConst, D: 0, Imm: 1, Line: 1},
			{Op: OpLoadParam, D: 1, Line: 1},
			{Op: Op(200), Line: 2},
			{Op: OpRet, Line: 3},
		},
	}
	st := checkEngines(t, bin, 0, call{name: "main"}, call{name: "main"})
	if len(st.Errs) != 2 || st.Errs[0] != fmt.Sprintf("vm: bad opcode %v at 2", Op(200)) {
		t.Fatalf("errs = %v", st.Errs)
	}
}

// TestBreaksForceInstrumentedCore locks breakpoint bookkeeping: planted
// breakpoints must fire OnBreak, and the per-block counts must follow
// SetBreak/ClearBreak/ClearAllBreaks.
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
	// A breakpoint added by OnBreak in a later block fires in the same
	// Call; ClearAllBreaks releases every block.
	m = New(tinyBinary())
	var seen []int
	m.SetBreak(1)
	m.OnBreak = func(mm *Machine, addr int) {
		seen = append(seen, addr)
		if addr == 1 {
			mm.SetBreak(9)
		} else {
			mm.ClearAllBreaks()
		}
	}
	if _, err := m.Call("main"); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[1 9]" {
		t.Fatalf("stops = %v, want [1 9]", seen)
	}
	for _, n := range m.bcount {
		if n != 0 {
			t.Fatalf("block counts %v after ClearAllBreaks", m.bcount)
		}
	}
}

// TestBlockSummaries pins block formation on the tiny binary: leaders
// at function starts and after prologs, calls and returns, with each
// block's static cycles, stalls, sample bound and successor.
func TestBlockSummaries(t *testing.T) {
	p := tinyBinary().decode()
	var got []string
	for _, b := range p.blocks {
		got = append(got, fmt.Sprintf("[%d,%d) c%d s%d b%d n%d", b.start, b.end, b.own.cycles, b.own.stalls, b.own.bound, b.next))
	}
	// main: prolog (dynamic cost, ends its block); 2 consts, mul 3,
	// print, arg, call (dynamic, continuing at inc's block); ret; inc:
	// loadparam, add, ret.
	want := "[[0,1) c0 s0 b10 n-1 [1,7) c7 s0 b17 n3 [7,8) c2 s0 b12 n-1 [8,11) c4 s0 b14 n-1]"
	if fmt.Sprint(got) != want {
		t.Fatalf("blocks = %v, want %v", got, want)
	}
}

// TestOverlappingBlocks pins the straight-line extension: the block of
// a leader reached by falling through runs on through it, the block of
// that leader is its suffix, and a breakpoint in the shared part counts
// in both.
func TestOverlappingBlocks(t *testing.T) {
	m := New(fusionBinary())
	p := m.Bin.prog()
	head, loop := &p.blocks[p.blockOf[1]], &p.blocks[p.blockOf[2]]
	if head.start != 1 || loop.start != 2 || head.end != 12 || loop.end != 12 {
		t.Fatalf("blocks [%d,%d) and [%d,%d), want [1,12) and [2,12)", head.start, head.end, loop.start, loop.end)
	}
	m.SetBreak(5)
	if m.bcount[p.blockOf[1]] != 1 || m.bcount[p.blockOf[2]] != 1 || m.bcount[p.blockOf[0]] != 0 {
		t.Fatalf("break counts %v", m.bcount)
	}
	m.ClearBreak(5)
	for _, n := range m.bcount {
		if n != 0 {
			t.Fatalf("break counts %v after ClearBreak", m.bcount)
		}
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
