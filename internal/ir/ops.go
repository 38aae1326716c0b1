// Package ir defines the MiniC SSA intermediate representation.
//
// The design follows cmd/compile's generic SSA: one Value struct carries
// an opcode, operands, an auxiliary integer, and — crucially for this
// project — a source line and optional variable binding. Optimization
// passes transform Values and are obliged to maintain the debug metadata
// the same way production compilers are; how faithfully they do so is
// exactly what DebugTuner measures.
package ir

// Op is an IR opcode.
type Op int

// Opcodes. Terminators come last, after opTermStart.
const (
	OpInvalid Op = iota

	// Pure values.
	OpConst // AuxInt = constant
	OpParam // AuxInt = parameter index
	OpPhi   // one arg per predecessor, in Preds order

	// Integer arithmetic. All wrap; Div/Rem by zero yield zero.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl // shift amount masked to 6 bits
	OpShr // arithmetic shift right, amount masked
	OpNeg
	OpNot // logical not: 1 if arg == 0 else 0

	// Comparisons produce 0 or 1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Select: Args[0] != 0 ? Args[1] : Args[2]. Produced by if-conversion.
	OpSelect

	// Local slots (pre-mem2reg storage for scalars). AuxInt = slot index.
	OpSlotLoad
	OpSlotStore // Args[0] = value

	// Globals. AuxInt = global index.
	OpGLoad
	OpGStore // Args[0] = value
	OpGArr   // handle of a global array

	// Arrays. Out-of-bounds loads yield 0; stores are no-ops.
	OpNewArray // Args[0] = size
	OpALoad    // Args[0] = arr, Args[1] = idx
	OpAStore   // Args[0] = arr, Args[1] = idx, Args[2] = value
	OpLen      // Args[0] = arr

	// Two-lane vector ops, produced by slp-vectorize. A vector value
	// holds lanes (v, v2) in one Value.
	OpVLoad2 // Args[0]=arr, Args[1]=idx: lanes a[idx], a[idx+1]
	OpVBin   // AuxInt = scalar Op; Args[0], Args[1] vectors
	OpVStore2

	// Calls and effects.
	OpCall  // Aux = callee name; Args = arguments
	OpPrint // Args[0] = value; ordered observable output

	// DbgValue is a debug pseudo-instruction binding Var to Args[0]
	// from this program point on. Args empty means the variable's
	// value is unrecoverable here ("optimized out"). It generates no
	// code; the back end turns chains of these into location lists.
	OpDbgValue

	opTermStart
	// Terminators.
	OpRet // optional Args[0]
	OpBr  // Args[0] = cond; Succs[0] = taken when != 0, Succs[1] otherwise
	OpJmp // Succs[0]
)

var opNames = [...]string{
	OpInvalid: "invalid", OpConst: "const", OpParam: "param", OpPhi: "phi",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpSelect:   "select",
	OpSlotLoad: "slotload", OpSlotStore: "slotstore",
	OpGLoad: "gload", OpGStore: "gstore", OpGArr: "garr",
	OpNewArray: "newarray", OpALoad: "aload", OpAStore: "astore", OpLen: "len",
	OpVLoad2: "vload2", OpVBin: "vbin", OpVStore2: "vstore2",
	OpCall: "call", OpPrint: "print", OpDbgValue: "dbg.value",
	opTermStart: "?", OpRet: "ret", OpBr: "br", OpJmp: "jmp",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o > opTermStart }

// IsPure reports whether the op has no side effects and no dependence on
// memory, so it can be freely duplicated, reordered, CSE'd, or removed.
func (o Op) IsPure() bool {
	switch o {
	case OpConst, OpParam, OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpNeg, OpNot,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpSelect, OpGArr, OpLen:
		return true
	}
	return false
}

// HasResult reports whether the op produces a value that other
// instructions may use.
func (o Op) HasResult() bool {
	switch o {
	case OpSlotStore, OpGStore, OpAStore, OpVStore2, OpPrint, OpDbgValue,
		OpRet, OpBr, OpJmp, OpInvalid:
		return false
	}
	return true
}

// IsMemRead reports whether the op observes mutable memory.
func (o Op) IsMemRead() bool {
	switch o {
	case OpSlotLoad, OpGLoad, OpALoad, OpVLoad2:
		return true
	}
	return false
}

// IsCommutative reports whether operand order is irrelevant.
func (o Op) IsCommutative() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}
