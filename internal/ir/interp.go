package ir

import (
	"errors"
	"fmt"
)

// Interp executes IR directly. It exists for differential testing: every
// optimization pipeline must leave a program's observable output (the
// print stream) unchanged, and the interpreter provides the reference
// semantics independent of the back end and VM.
type Interp struct {
	prog      *Program
	heap      [][]int64
	heapWords int64
	gvals     []int64
	out       []int64
	steps     int64
	limit     int64
	lanes     map[*Value]int64

	// HeapBudget, when > 0, turns allocations that would push the total
	// heap past it into ErrHeapBudget instead of the silent maxHeapWords
	// clamp. 0 (the default) preserves the clamping semantics.
	HeapBudget int64
}

// maxHeapWords caps the interpreter's total array heap, mirroring
// vm.MaxHeapWords exactly: allocations past the cap clamp to the
// remaining capacity, and out-of-bounds semantics keep the run total.
// The two constants must stay equal or differential tests diverge on
// alloc-heavy programs.
const maxHeapWords int64 = 1 << 24

// ErrBudget is the base sentinel for execution-budget exhaustion:
// errors.Is(err, ErrBudget) matches both step- and heap-budget errors.
// Budget exhaustion is deterministic for a given program and input: a
// cell that hits it quarantines, and running it again cannot help.
var ErrBudget = errors.New("ir interp: execution budget exceeded")

// ErrStepLimit is returned when execution exceeds the step budget,
// protecting differential tests from accidental non-termination.
var ErrStepLimit = fmt.Errorf("%w: step limit", ErrBudget)

// ErrHeapBudget is returned when an allocation would push the heap past
// an explicitly configured Interp.HeapBudget. The hard maxHeapWords cap
// still clamps silently, mirroring the VM.
var ErrHeapBudget = fmt.Errorf("%w: heap limit", ErrBudget)

// NewInterp prepares an interpreter with initialized globals.
func NewInterp(prog *Program, limit int64) *Interp {
	in := &Interp{prog: prog, limit: limit}
	in.gvals = make([]int64, len(prog.Globals))
	for _, g := range prog.Globals {
		if g.IsArray {
			in.gvals[g.Index] = in.alloc(g.Init)
		} else {
			in.gvals[g.Index] = g.Init
		}
	}
	return in
}

func (in *Interp) alloc(size int64) int64 {
	if size < 0 {
		size = 0
	}
	if rem := maxHeapWords - in.heapWords; size > rem {
		size = rem
	}
	in.heapWords += size
	in.heap = append(in.heap, make([]int64, size))
	return int64(len(in.heap) - 1)
}

// NewArray allocates an array and returns its handle, used to pass
// harness inputs.
func (in *Interp) NewArray(data []int64) int64 {
	h := in.alloc(int64(len(data)))
	copy(in.heap[h], data)
	return h
}

// Output returns the accumulated print stream.
func (in *Interp) Output() []int64 { return in.out }

// Call invokes the named function with the given arguments.
func (in *Interp) Call(name string, args ...int64) (int64, error) {
	f := in.prog.Func(name)
	if f == nil {
		return 0, fmt.Errorf("ir interp: no function %q", name)
	}
	return in.run(f, args)
}

// run executes one activation: a switch over the *Value graph, one step
// per non-phi instruction, with phis evaluated atomically on block entry.
func (in *Interp) run(f *Func, args []int64) (int64, error) {
	vals := make([]int64, f.NumValueIDs())
	slots := make([]int64, f.NumSlots)
	b := f.Entry()
	var prevPredIdx int
	for {
		// Evaluate phis atomically against the incoming edge.
		for _, v := range b.Instrs {
			if v.Op != OpPhi {
				break
			}
			vals[v.ID] = vals[v.Args[prevPredIdx].ID]
		}
		for _, v := range b.Instrs {
			if v.Op == OpPhi {
				continue
			}
			in.steps++
			if in.steps > in.limit {
				return 0, ErrStepLimit
			}
			switch v.Op {
			case OpConst:
				vals[v.ID] = v.AuxInt
			case OpParam:
				vals[v.ID] = args[v.AuxInt]
			case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor,
				OpShl, OpShr, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
				vals[v.ID] = EvalBin(v.Op, vals[v.Args[0].ID], vals[v.Args[1].ID])
			case OpNeg:
				vals[v.ID] = -vals[v.Args[0].ID]
			case OpNot:
				if vals[v.Args[0].ID] == 0 {
					vals[v.ID] = 1
				} else {
					vals[v.ID] = 0
				}
			case OpSelect:
				if vals[v.Args[0].ID] != 0 {
					vals[v.ID] = vals[v.Args[1].ID]
				} else {
					vals[v.ID] = vals[v.Args[2].ID]
				}
			case OpSlotLoad:
				vals[v.ID] = slots[v.AuxInt]
			case OpSlotStore:
				slots[v.AuxInt] = vals[v.Args[0].ID]
			case OpGLoad, OpGArr:
				vals[v.ID] = in.gvals[v.AuxInt]
			case OpGStore:
				in.gvals[v.AuxInt] = vals[v.Args[0].ID]
			case OpNewArray:
				size := vals[v.Args[0].ID]
				if size < 0 {
					size = 0
				}
				if in.HeapBudget > 0 && in.heapWords+size > in.HeapBudget {
					return 0, ErrHeapBudget
				}
				vals[v.ID] = in.alloc(vals[v.Args[0].ID])
			case OpALoad:
				vals[v.ID] = in.aload(vals[v.Args[0].ID], vals[v.Args[1].ID])
			case OpAStore:
				in.astore(vals[v.Args[0].ID], vals[v.Args[1].ID], vals[v.Args[2].ID])
			case OpLen:
				vals[v.ID] = int64(len(in.arr(vals[v.Args[0].ID])))
			case OpVLoad2:
				h, idx := vals[v.Args[0].ID], vals[v.Args[1].ID]
				lane0 := in.aload(h, idx)
				lane1 := in.aload(h, idx+1)
				vals[v.ID] = lane0
				in.setLane(f, v, lane1)
			case OpVBin:
				a0, a1 := vals[v.Args[0].ID], in.lane(v.Args[0])
				b0, b1 := vals[v.Args[1].ID], in.lane(v.Args[1])
				vals[v.ID] = EvalBin(Op(v.AuxInt), a0, b0)
				in.setLane(f, v, EvalBin(Op(v.AuxInt), a1, b1))
			case OpVStore2:
				h, idx := vals[v.Args[0].ID], vals[v.Args[1].ID]
				in.astore(h, idx, vals[v.Args[2].ID])
				in.astore(h, idx+1, in.lane(v.Args[2]))
			case OpCall:
				callee := in.prog.Func(v.Aux)
				if callee == nil {
					return 0, fmt.Errorf("ir interp: call to unknown %q", v.Aux)
				}
				cargs := make([]int64, len(v.Args))
				for i, a := range v.Args {
					cargs[i] = vals[a.ID]
				}
				r, err := in.run(callee, cargs)
				if err != nil {
					return 0, err
				}
				vals[v.ID] = r
			case OpPrint:
				in.out = append(in.out, vals[v.Args[0].ID])
			case OpDbgValue:
				// no runtime effect
			case OpRet:
				if len(v.Args) == 1 {
					return vals[v.Args[0].ID], nil
				}
				return 0, nil
			case OpJmp:
				next := b.Succs[0]
				prevPredIdx = indexOfPred(next, b)
				b = next
			case OpBr:
				var next *Block
				if vals[v.Args[0].ID] != 0 {
					next = b.Succs[0]
				} else {
					next = b.Succs[1]
				}
				prevPredIdx = indexOfPred(next, b)
				b = next
			default:
				return 0, fmt.Errorf("ir interp: unhandled op %v", v.Op)
			}
			if v.Op.IsTerminator() {
				break
			}
		}
	}
}

// lanes stores the second lane of vector values, keyed by value pointer.
// A per-call map would be cleaner but this suffices because vector values
// never live across calls of the same function recursively in practice;
// to stay safe the interpreter keys by value identity and the caller's
// frame never observes the callee's lanes.
func (in *Interp) lane(v *Value) int64 {
	if in.lanes == nil {
		return 0
	}
	return in.lanes[v]
}

func (in *Interp) setLane(_ *Func, v *Value, x int64) {
	if in.lanes == nil {
		in.lanes = make(map[*Value]int64)
	}
	in.lanes[v] = x
}

func (in *Interp) arr(h int64) []int64 {
	if h < 0 || h >= int64(len(in.heap)) {
		return nil
	}
	return in.heap[h]
}

func (in *Interp) aload(h, idx int64) int64 {
	a := in.arr(h)
	if idx < 0 || idx >= int64(len(a)) {
		return 0 // MiniC total semantics: OOB reads yield zero
	}
	return a[idx]
}

func (in *Interp) astore(h, idx, val int64) {
	a := in.arr(h)
	if idx < 0 || idx >= int64(len(a)) {
		return // OOB writes are no-ops
	}
	a[idx] = val
}

func indexOfPred(b, p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	panic(fmt.Sprintf("interp: %v not a pred of %v", p, b))
}

// EvalBin evaluates a binary opcode under MiniC's total semantics:
// wrapping arithmetic, zero results for division by zero, and shift
// amounts masked to 6 bits.
func EvalBin(op Op, x, y int64) int64 {
	switch op {
	case OpAdd:
		return x + y
	case OpSub:
		return x - y
	case OpMul:
		return x * y
	case OpDiv:
		if y == 0 {
			return 0
		}
		if x == -1<<63 && y == -1 {
			return x // wraps: -MinInt overflows back to MinInt
		}
		return x / y
	case OpRem:
		if y == 0 {
			return 0
		}
		if x == -1<<63 && y == -1 {
			return 0
		}
		return x % y
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpShl:
		return x << uint(y&63)
	case OpShr:
		return x >> uint(y&63)
	case OpEq:
		return b2i(x == y)
	case OpNe:
		return b2i(x != y)
	case OpLt:
		return b2i(x < y)
	case OpLe:
		return b2i(x <= y)
	case OpGt:
		return b2i(x > y)
	case OpGe:
		return b2i(x >= y)
	}
	panic(fmt.Sprintf("EvalBin: not a binary op: %v", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
