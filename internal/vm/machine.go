package vm

import (
	"errors"
	"fmt"

	"debugtuner/internal/telemetry"
)

// Costs of the machine model, in cycles.
const (
	costDefault    = 1
	costMul        = 3
	costDivRem     = 10
	costLoad       = 3
	costStore      = 2
	costLoadUse    = 2 // stall when a load's result is consumed immediately
	costJmp        = 1
	costBrTaken    = 3
	costBrFall     = 1
	costCallBase   = 5
	costCallArg    = 1
	costRet        = 2
	costNewArrMin  = 10
	costPrint      = 1
	costVLoad      = 3
	costVStore     = 2
	costICacheMiss = 8

	icacheLineShift = 4 // 16 instructions per line
	icacheSets      = 256
)

// ErrBudget is the base sentinel for execution-budget exhaustion:
// errors.Is(err, ErrBudget) matches both step- and heap-budget errors.
// Budget exhaustion is deterministic for a given binary and input: a
// cell that hits it quarantines, and running it again cannot help.
var ErrBudget = errors.New("vm: execution budget exceeded")

// ErrStepBudget is returned when execution exceeds the step budget.
var ErrStepBudget = fmt.Errorf("%w: step limit", ErrBudget)

// ErrHeapBudget is returned when an allocation would push the heap past
// an explicitly configured Machine.HeapBudget. The hard MaxHeapWords cap
// still clamps silently (that behavior is differential-test load-bearing);
// the budget error only exists for callers that opt in.
var ErrHeapBudget = fmt.Errorf("%w: heap limit", ErrBudget)

// Frame is one activation record.
type Frame struct {
	FnIdx   int
	Regs    [NumRegs]int64
	Lanes   [NumRegs]int64 // second lanes of two-lane vector registers
	Slots   []int64
	Params  []int64
	Owner   [NumRegs]int32 // symbol ID + 1 whose value the register holds
	SlotOwn []int32
	// PrologueDone is set when the frame's OpProlog has executed;
	// before that, slot-based variable locations cannot materialize.
	PrologueDone bool

	retAddr int
	retReg  uint8
	// retTags are owner tags from the call instruction, applied in the
	// caller once the return value lands (a binding "after the call"
	// only holds after the call completes).
	retTags []OwnerTag
}

// Engine selects the execution core. The zero value (EngineAuto) runs
// the block core (exec.go); EngineReference forces the per-step
// interpreter the block core is differentially tested against.
type Engine uint8

const (
	// EngineAuto runs the block-at-a-time core.
	EngineAuto Engine = iota
	// EngineReference is the original switch-dispatch interpreter, kept
	// as the executable specification.
	EngineReference
)

// Machine executes a Binary.
type Machine struct {
	Bin       *Binary
	Globals   []int64
	heap      [][]int64
	heapWords int64
	out       []int64

	frames []*Frame
	pc     int

	// Engine forces an execution core; leave zero for automatic
	// selection (see Engine).
	Engine Engine

	// Block-core state (exec.go).
	depth0       int // frame depth the active Call returns past
	retVal       int64
	lastLoadMask uint16  // load-use state, the block core's lastLoadReg
	fxBuf        []ownFx // owner writes of the instruction being stepped

	// Frame pool and heap arena: Call/Ret recycle frames instead of
	// allocating, and small array allocations carve from chunked arenas
	// whose size doubles from arenaMin up to arenaChunk, so a machine
	// that allocates little zeroes little.
	framePool []*Frame
	arena     []int64
	arenaSize int

	// Cost accounting.
	Cycles     int64
	Steps      int64
	StepBudget int64
	// HeapBudget, when > 0, turns allocations that would push the total
	// heap past it into ErrHeapBudget instead of the silent MaxHeapWords
	// clamp. 0 (the default) preserves the clamping semantics.
	HeapBudget int64
	// Cost breakdown counters for ablation analysis.
	ICacheMisses int64
	StallCycles  int64
	TakenBr      int64
	FallBr       int64
	JmpsRun      int64
	SlotOpsRun   int64
	icacheTags   [icacheSets]int64
	lastLoadReg  int // register written by the immediately preceding load, or -1

	// Breakpoints: a dense per-address flag set maintained through
	// SetBreak/ClearBreak, with a live count per block. The
	// OnBreak handler runs before the instruction at the address
	// executes, and may set or clear breakpoints.
	breaks  []uint8
	bcount  []int32
	nbreaks int
	OnBreak func(m *Machine, addr int)

	// CovEdges, enabled by EnableCoverage, counts control-flow edge hits.
	CovEdges map[uint64]int64

	// Sampling, enabled when SampleEvery > 0: the PC is recorded every
	// SampleEvery cycles (deterministically, on the instruction that
	// crosses the boundary).
	SampleEvery int64
	Samples     []int
	nextSample  int64

	argBuf []int64
}

// New creates a machine for the binary with initialized globals.
func New(b *Binary) *Machine {
	m := &Machine{Bin: b, StepBudget: 1 << 40, lastLoadReg: -1}
	m.Globals = make([]int64, len(b.Globals))
	for i := range b.Globals {
		g := &b.Globals[i]
		if g.IsArray {
			m.Globals[i] = m.alloc(g.Init)
		} else {
			m.Globals[i] = g.Init
		}
	}
	for i := range m.icacheTags {
		m.icacheTags[i] = -1
	}
	return m
}

// EnableCoverage turns on edge recording.
func (m *Machine) EnableCoverage() {
	m.CovEdges = make(map[uint64]int64)
}

// SetBreak plants a breakpoint at the address; OnBreak fires before the
// instruction at the address executes.
func (m *Machine) SetBreak(addr int) {
	if addr < 0 || addr >= len(m.Bin.Code) {
		return
	}
	p := m.Bin.prog()
	if m.breaks == nil {
		m.breaks = make([]uint8, len(m.Bin.Code))
		m.bcount = make([]int32, len(p.blocks))
	}
	if m.breaks[addr] == 0 {
		m.breaks[addr] = 1
		m.countBreak(p, addr, 1)
		m.nbreaks++
	}
}

// countBreak adds d to the live-breakpoint count of every block holding
// addr: the block of its closest leader and the earlier blocks of the
// same straight line.
func (m *Machine) countBreak(p *prog, addr int, d int32) {
	for bi := p.blockOf[addr]; bi >= 0 && int(p.blocks[bi].end) > addr; bi-- {
		m.bcount[bi] += d
	}
}

// ClearBreak removes the breakpoint at the address.
func (m *Machine) ClearBreak(addr int) {
	if m.breaks == nil || addr < 0 || addr >= len(m.breaks) || m.breaks[addr] == 0 {
		return
	}
	m.breaks[addr] = 0
	m.countBreak(m.Bin.prog(), addr, -1)
	m.nbreaks--
}

// ClearAllBreaks removes every breakpoint.
func (m *Machine) ClearAllBreaks() {
	clear(m.breaks)
	clear(m.bcount)
	m.nbreaks = 0
}

// HasBreak reports whether a breakpoint is set at the address.
func (m *Machine) HasBreak(addr int) bool {
	return m.breaks != nil && addr >= 0 && addr < len(m.breaks) && m.breaks[addr] != 0
}

// BreakCount returns the number of live breakpoints.
func (m *Machine) BreakCount() int { return m.nbreaks }

// Output returns the print stream.
func (m *Machine) Output() []int64 { return m.out }

// Frame returns the active frame (for the debugger).
func (m *Machine) Frame() *Frame {
	if len(m.frames) == 0 {
		return nil
	}
	return m.frames[len(m.frames)-1]
}

// Heap returns the array object for a handle, or nil.
func (m *Machine) Heap(h int64) []int64 {
	if h < 0 || h >= int64(len(m.heap)) {
		return nil
	}
	return m.heap[h]
}

// NewArray allocates an array for harness inputs.
func (m *Machine) NewArray(data []int64) int64 {
	h := m.alloc(int64(len(data)))
	copy(m.heap[h], data)
	return h
}

// MaxHeapWords caps the machine's total array heap. Allocations past the
// cap are clamped to the remaining capacity (possibly zero length), and
// MiniC's out-of-bounds semantics — loads 0, stores ignored — keep such
// runs total and deterministic. The IR interpreter applies the identical
// rule so the two engines stay behaviorally equivalent on alloc-heavy
// programs.
const MaxHeapWords int64 = 1 << 24

// arenaChunk is the largest allocation quantum of the heap arena. Small
// arrays carve zeroed regions out of one chunk instead of hitting the
// Go allocator per OpNewArr; regions are handed out once and never
// reused, so the zero-initialization guarantee is preserved.
const (
	arenaMin   = 1 << 9
	arenaChunk = 1 << 15
)

func (m *Machine) alloc(n int64) int64 {
	if n < 0 {
		n = 0
	}
	if rem := MaxHeapWords - m.heapWords; n > rem {
		n = rem
	}
	m.heapWords += n
	var a []int64
	switch {
	case n <= int64(len(m.arena)):
		a = m.arena[:n:n]
		m.arena = m.arena[n:]
	case n < arenaChunk/4:
		m.arenaSize = min(max(2*m.arenaSize, arenaMin, int(4*n)), arenaChunk)
		m.arena = make([]int64, m.arenaSize)
		a = m.arena[:n:n]
		m.arena = m.arena[n:]
	default:
		a = make([]int64, n)
	}
	m.heap = append(m.heap, a)
	return int64(len(m.heap) - 1)
}

// newFrame returns a zeroed frame for the function, recycling one from
// the pool when possible. Slots and SlotOwn keep their backing arrays
// across recycles; Params is reset to zero length for the caller to
// fill.
func (m *Machine) newFrame(fi, nslots, retAddr int, retReg uint8) *Frame {
	var fr *Frame
	if n := len(m.framePool); n > 0 {
		fr = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		*fr = Frame{Slots: fr.Slots, SlotOwn: fr.SlotOwn, Params: fr.Params[:0]}
	} else {
		fr = &Frame{}
	}
	if cap(fr.Slots) < nslots {
		fr.Slots = make([]int64, nslots)
		fr.SlotOwn = make([]int32, nslots)
	} else {
		fr.Slots = fr.Slots[:nslots]
		fr.SlotOwn = fr.SlotOwn[:nslots]
		for i := range fr.Slots {
			fr.Slots[i] = 0
			fr.SlotOwn[i] = 0
		}
	}
	fr.FnIdx = fi
	fr.retAddr = retAddr
	fr.retReg = retReg
	return fr
}

// freeFrame returns a popped frame to the pool.
func (m *Machine) freeFrame(fr *Frame) {
	fr.retTags = nil
	m.framePool = append(m.framePool, fr)
}

// Call runs the named function to completion and returns its result.
func (m *Machine) Call(name string, args ...int64) (int64, error) {
	fi := m.Bin.FuncIndex(name)
	if fi < 0 {
		return 0, fmt.Errorf("vm: no function %q", name)
	}
	// A nested Call from an OnBreak callback must not clobber the
	// suspended outer run's return depth and value.
	prevDepth0, prevRet := m.depth0, m.retVal
	f := &m.Bin.Funcs[fi]
	fr := m.newFrame(fi, f.NumSlots, -1, 0)
	fr.Params = append(fr.Params, args...)
	m.frames = append(m.frames, fr)
	m.depth0 = len(m.frames) - 1
	m.pc = f.Start
	if m.SampleEvery > 0 && m.nextSample == 0 {
		m.nextSample = m.SampleEvery
	}
	var r int64
	var err error
	if snk := telemetry.Active(); snk != nil {
		// Flush the interpreter's counters as one delta per Call so the
		// hot loop stays untouched.
		steps0, cycles0 := m.Steps, m.Cycles
		r, err = m.dispatch()
		snk.Add("vm.steps", m.Steps-steps0)
		snk.Add("vm.cycles", m.Cycles-cycles0)
	} else {
		r, err = m.dispatch()
	}
	m.depth0, m.retVal = prevDepth0, prevRet
	return r, err
}

// dispatch runs the active Call on the selected core.
func (m *Machine) dispatch() (int64, error) {
	if m.Engine == EngineReference {
		return m.referenceRun()
	}
	return m.exec()
}

// EvalBinOp exposes the machine's binary-operation semantics (total:
// div/rem by zero yield 0, MinInt64/-1 wraps, shift counts masked to 6
// bits) so the middle-end folder can be cross-checked against the VM in
// differential tests.
func EvalBinOp(sub uint8, x, y int64) int64 { return evalBin(sub, x, y) }

func evalBin(sub uint8, x, y int64) int64 {
	switch sub {
	case BinAdd:
		return x + y
	case BinSub:
		return x - y
	case BinMul:
		return x * y
	case BinDiv:
		if y == 0 {
			return 0
		}
		if x == -1<<63 && y == -1 {
			return x
		}
		return x / y
	case BinRem:
		if y == 0 {
			return 0
		}
		if x == -1<<63 && y == -1 {
			return 0
		}
		return x % y
	case BinAnd:
		return x & y
	case BinOr:
		return x | y
	case BinXor:
		return x ^ y
	case BinShl:
		return x << uint(y&63)
	case BinShr:
		return x >> uint(y&63)
	case BinEq:
		return b2i(x == y)
	case BinNe:
		return b2i(x != y)
	case BinLt:
		return b2i(x < y)
	case BinLe:
		return b2i(x <= y)
	case BinGt:
		return b2i(x > y)
	case BinGe:
		return b2i(x >= y)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// charge adds cycles and advances the sampling clock.
func (m *Machine) charge(c int64) {
	m.Cycles += c
	if m.SampleEvery > 0 && m.Cycles >= m.nextSample {
		m.Samples = append(m.Samples, m.pc)
		for m.nextSample <= m.Cycles {
			m.nextSample += m.SampleEvery
		}
	}
}

// transfer records a control-flow edge and the icache/branch costs.
func (m *Machine) edge(from, to int) {
	if m.CovEdges != nil {
		m.CovEdges[uint64(from)<<32|uint64(uint32(to))]++
	}
}

func (m *Machine) icache(pc int) {
	line := int64(pc >> icacheLineShift)
	set := line & (icacheSets - 1)
	if m.icacheTags[set] != line {
		m.icacheTags[set] = line
		m.Cycles += costICacheMiss
		m.ICacheMisses++
	}
}

// referenceRun is the original switch-dispatch interpreter, retained as
// the executable specification: the block core in exec.go is
// differentially tested against it (identical output, cycles, steps,
// counters, samples, coverage edges and breakpoint observations on every
// program). Changes to machine semantics MUST be made here first and
// mirrored into exec.go and the block summaries in decode.go.
func (m *Machine) referenceRun() (int64, error) {
	depth0 := m.depth0
	var retVal int64
	for {
		if len(m.frames) == depth0 {
			return retVal, nil
		}
		m.Steps++
		if m.Steps > m.StepBudget {
			return 0, ErrStepBudget
		}
		pc := m.pc
		if m.breaks != nil && m.breaks[pc] != 0 && m.OnBreak != nil {
			m.OnBreak(m, pc)
		}
		m.icache(pc)
		in := &m.Bin.Code[pc]
		fr := m.frames[len(m.frames)-1]

		// Owner pre-tags apply before the write below.
		for _, t := range in.Own {
			if t.Pre {
				m.applyTag(fr, t)
			}
		}

		// Load-use stall: reading the register a load just produced.
		if m.lastLoadReg >= 0 {
			r := uint8(m.lastLoadReg)
			readsR := false
			switch in.Op {
			case OpMov, OpNeg, OpNot, OpStoreSlot, OpGStore, OpNewArr,
				OpLen, OpArg, OpPrint, OpBr:
				readsR = in.A == r
			case OpBin, OpSelect, OpALoad, OpVLoad2, OpVBin:
				readsR = in.A == r || in.B == r
			case OpBinImm:
				readsR = in.A == r
			case OpAStore, OpVStore2:
				readsR = in.A == r || in.B == r || in.C == r
			case OpRet:
				readsR = in.Sub != 0 && in.A == r
			}
			if readsR {
				m.Cycles += costLoadUse
				m.StallCycles += costLoadUse
			}
		}
		loadReg := -1

		next := pc + 1
		switch in.Op {
		case OpNop:
			m.charge(costDefault)
		case OpProlog:
			fr.PrologueDone = true
			m.charge(2 + int64(len(fr.Slots))/8)
		case OpConst:
			m.setReg(fr, in.D, in.Imm, 0)
			m.charge(costDefault)
		case OpMov:
			m.setReg(fr, in.D, fr.Regs[in.A], fr.Lanes[in.A])
			m.charge(costDefault)
		case OpBin:
			m.setReg(fr, in.D, evalBin(in.Sub, fr.Regs[in.A], fr.Regs[in.B]), 0)
			m.charge(binCost(in.Sub))
		case OpBinImm:
			m.setReg(fr, in.D, evalBin(in.Sub, fr.Regs[in.A], in.Imm), 0)
			m.charge(binCost(in.Sub))
		case OpNeg:
			m.setReg(fr, in.D, -fr.Regs[in.A], 0)
			m.charge(costDefault)
		case OpNot:
			m.setReg(fr, in.D, b2i(fr.Regs[in.A] == 0), 0)
			m.charge(costDefault)
		case OpSelect:
			v := fr.Regs[in.C]
			if fr.Regs[in.A] != 0 {
				v = fr.Regs[in.B]
			}
			m.setReg(fr, in.D, v, 0)
			m.charge(costDefault)
		case OpLoadSlot:
			m.setReg(fr, in.D, fr.Slots[in.Imm], 0)
			m.charge(costLoad)
			m.SlotOpsRun++
			loadReg = int(in.D)
		case OpStoreSlot:
			fr.Slots[in.Imm] = fr.Regs[in.A]
			fr.SlotOwn[in.Imm] = 0
			m.charge(costStore)
			m.SlotOpsRun++
		case OpLoadParam:
			var v int64
			if int(in.Imm) < len(fr.Params) {
				v = fr.Params[in.Imm]
			}
			m.setReg(fr, in.D, v, 0)
			m.charge(costDefault)
		case OpGLoad:
			m.setReg(fr, in.D, m.Globals[in.Imm], 0)
			m.charge(costLoad)
			loadReg = int(in.D)
		case OpGStore:
			m.Globals[in.Imm] = fr.Regs[in.A]
			m.charge(costStore)
		case OpNewArr:
			n := fr.Regs[in.A]
			if n < 0 {
				n = 0
			}
			if m.HeapBudget > 0 && m.heapWords+n > m.HeapBudget {
				return 0, ErrHeapBudget
			}
			m.setReg(fr, in.D, m.alloc(fr.Regs[in.A]), 0)
			m.charge(costNewArrMin + n/8)
		case OpALoad:
			m.setReg(fr, in.D, m.aload(fr.Regs[in.A], fr.Regs[in.B]), 0)
			m.charge(costLoad)
			loadReg = int(in.D)
		case OpAStore:
			m.astore(fr.Regs[in.A], fr.Regs[in.B], fr.Regs[in.C])
			m.charge(costStore)
		case OpLen:
			m.setReg(fr, in.D, int64(len(m.Heap(fr.Regs[in.A]))), 0)
			m.charge(costDefault)
		case OpVLoad2:
			h, idx := fr.Regs[in.A], fr.Regs[in.B]
			m.setReg(fr, in.D, m.aload(h, idx), m.aload(h, idx+1))
			m.charge(costVLoad)
			loadReg = int(in.D)
		case OpVBin:
			m.setReg(fr, in.D,
				evalBin(in.Sub, fr.Regs[in.A], fr.Regs[in.B]),
				evalBin(in.Sub, fr.Lanes[in.A], fr.Lanes[in.B]))
			m.charge(binCost(in.Sub))
		case OpVStore2:
			h, idx := fr.Regs[in.A], fr.Regs[in.B]
			m.astore(h, idx, fr.Regs[in.C])
			m.astore(h, idx+1, fr.Lanes[in.C])
			m.charge(costVStore)
		case OpArg:
			m.argBuf = append(m.argBuf, fr.Regs[in.A])
			m.charge(costDefault)
		case OpCall:
			callee := &m.Bin.Funcs[in.Imm]
			nf := &Frame{
				FnIdx:   int(in.Imm),
				Slots:   make([]int64, callee.NumSlots),
				SlotOwn: make([]int32, callee.NumSlots),
				Params:  append([]int64(nil), m.argBuf...),
				retAddr: next,
				retReg:  in.D,
			}
			m.argBuf = m.argBuf[:0]
			nf.retTags = in.Own
			m.frames = append(m.frames, nf)
			m.charge(costCallBase + costCallArg*int64(len(nf.Params)))
			m.edge(pc, callee.Start)
			next = callee.Start
		case OpRet:
			var rv int64
			if in.Sub != 0 {
				rv = fr.Regs[in.A]
			}
			ret := fr.retAddr
			rr := fr.retReg
			m.frames = m.frames[:len(m.frames)-1]
			m.charge(costRet)
			if len(m.frames) == depth0 {
				retVal = rv
				m.pc = pc // leave pc on the return site
				return retVal, nil
			}
			caller := m.frames[len(m.frames)-1]
			m.setReg(caller, rr, rv, 0)
			for _, t := range fr.retTags {
				if !t.Pre {
					m.applyTag(caller, t)
				}
			}
			m.edge(pc, ret)
			next = ret
		case OpJmp:
			m.charge(costJmp)
			m.JmpsRun++
			m.edge(pc, int(in.Imm))
			next = int(in.Imm)
		case OpBr:
			taken := fr.Regs[in.A] != 0
			if in.Sub != 0 {
				taken = !taken
			}
			if taken {
				m.charge(costBrTaken)
				m.TakenBr++
				m.edge(pc, int(in.Imm))
				next = int(in.Imm)
			} else {
				m.charge(costBrFall)
				m.FallBr++
				m.edge(pc, next)
			}
		case OpPrint:
			m.out = append(m.out, fr.Regs[in.A])
			m.charge(costPrint)
		default:
			return 0, fmt.Errorf("vm: bad opcode %v at %d", in.Op, pc)
		}

		if in.Op != OpCall { // call tags defer to the matching return
			for _, t := range in.Own {
				if !t.Pre {
					m.applyTag(m.Frame(), t)
				}
			}
		}
		m.lastLoadReg = loadReg
		m.pc = next
	}
}

// setReg writes a register and clears its variable ownership; an owner
// tag on the same instruction reasserts it afterwards.
func (m *Machine) setReg(fr *Frame, d uint8, v, lane int64) {
	fr.Regs[d] = v
	fr.Lanes[d] = lane
	fr.Owner[d] = 0
}

func (m *Machine) applyTag(fr *Frame, t OwnerTag) {
	if fr == nil {
		return
	}
	if t.Reg >= 0 && int(t.Reg) < NumRegs {
		fr.Owner[t.Reg] = t.Var
	}
	if t.Slot >= 0 && int(t.Slot) < len(fr.SlotOwn) {
		fr.SlotOwn[t.Slot] = t.Var
	}
}

func binCost(sub uint8) int64 {
	switch sub {
	case BinMul:
		return costMul
	case BinDiv, BinRem:
		return costDivRem
	}
	return costDefault
}

func (m *Machine) aload(h, idx int64) int64 {
	a := m.Heap(h)
	if idx < 0 || idx >= int64(len(a)) {
		return 0
	}
	return a[idx]
}

func (m *Machine) astore(h, idx, v int64) {
	a := m.Heap(h)
	if idx < 0 || idx >= int64(len(a)) {
		return
	}
	a[idx] = v
}
