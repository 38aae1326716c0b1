// Package vm defines the MiniC target machine: a register-based bytecode
// virtual machine with a deterministic cycle cost model.
//
// The cost model is what gives back-end optimizations measurable effect:
// loads have latency that scheduling can hide, taken branches cost more
// than fall-through (rewarding block placement), calls pay per-argument
// and prologue overhead (rewarding inlining and shrink-wrapping), and a
// small direct-mapped instruction cache rewards layout locality.
//
// The VM also maintains the runtime ground truth the debugger needs: a
// per-frame owner tag for every register and spill slot records which
// source variable's value it currently holds, so a DWARF-style location
// entry can be checked for materialization — locations that exist in the
// debug info but never hold the variable's value at runtime are exactly
// the static-method overestimation the paper corrects for.
package vm

import "fmt"

// NumRegs is the number of general-purpose registers (x86-64-like).
// Three are reserved by the register allocator as spill scratch.
const NumRegs = 16

// Op is a VM opcode.
type Op uint8

// VM opcodes.
const (
	OpNop    Op = iota
	OpProlog    // frame setup; cost scales with frame size
	OpConst     // R[D] = Imm
	OpMov       // R[D] = R[A]
	OpBin       // R[D] = R[A] <Sub> R[B]
	OpBinImm    // R[D] = R[A] <Sub> Imm
	OpNeg       // R[D] = -R[A]
	OpNot       // R[D] = R[A] == 0 ? 1 : 0
	OpSelect    // R[D] = R[A] != 0 ? R[B] : R[C]
	OpLoadSlot
	OpStoreSlot // slots[Imm] = R[A]
	OpLoadParam // R[D] = params[Imm]
	OpGLoad
	OpGStore // globals[Imm] = R[A]
	OpNewArr // R[D] = handle of new array of length R[A]
	OpALoad  // R[D] = arr(R[A])[R[B]]
	OpAStore // arr(R[A])[R[B]] = R[C]
	OpLen
	OpVLoad2  // R[D].lanes = arr(R[A])[R[B]], arr(R[A])[R[B]+1]
	OpVBin    // R[D].lanes = R[A].lanes <Sub> R[B].lanes
	OpVStore2 // arr(R[A])[R[B]], +1 = R[C].lanes
	OpArg     // stage R[A] as the next call argument
	OpCall    // R[D] = call Funcs[Imm](staged args)
	OpRet     // return R[A] if Sub != 0
	OpJmp     // pc = Imm
	OpBr      // if R[A] != 0 then pc = Imm
	OpPrint   // emit R[A]
)

// Binary sub-operation codes for OpBin/OpBinImm/OpVBin.
const (
	BinAdd uint8 = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

// OwnerTag records that after (or, with Pre, before) executing the
// instruction it is attached to, a register or spill slot holds the
// value of a source variable. Tags are debug metadata: they are excluded
// from the .text identity hash and have no semantic effect.
type OwnerTag struct {
	Reg  int8  // register index, or -1
	Slot int32 // spill slot index, or -1
	Var  int32 // symbol ID + 1
	Pre  bool
}

// Instr is one VM instruction.
type Instr struct {
	Op   Op
	Sub  uint8
	A    uint8
	B    uint8
	C    uint8
	D    uint8
	Imm  int64
	Line int32      // debug: source line, 0 = artificial
	Own  []OwnerTag // debug: owner transfers
}

// FuncInfo describes one function's code range and frame.
type FuncInfo struct {
	Name     string
	Start    int // first instruction address
	End      int // one past the last
	NumSlots int
	NParams  int
}

// GlobalInfo describes a module-level variable.
type GlobalInfo struct {
	Name    string
	IsArray bool
	Init    int64
}

// Binary is a fully linked MiniC executable.
type Binary struct {
	Code    []Instr
	Funcs   []FuncInfo
	Globals []GlobalInfo
	// Debug is the serialized debug-information section; see package
	// debuginfo. nil when compiled without -g.
	Debug []byte

	// dec caches the basic-block decoding (see decode.go). Decoding
	// treats Code as immutable: mutating a binary after its first
	// execution is not supported.
	dec decCache
}

// Clone returns a copy of the binary sharing the code, function, and
// global tables but with a fresh decode cache. Use it instead of a value
// copy (which would share — or tear — the cache's sync state).
func (b *Binary) Clone() *Binary {
	return &Binary{Code: b.Code, Funcs: b.Funcs, Globals: b.Globals, Debug: b.Debug}
}

// FuncIndex returns the index of the named function, or -1.
func (b *Binary) FuncIndex(name string) int {
	for i := range b.Funcs {
		if b.Funcs[i].Name == name {
			return i
		}
	}
	return -1
}

// TextHash returns a hash of the semantic instruction stream — opcode,
// registers, immediates, and function/global tables, but no line numbers
// or owner tags. DebugTuner uses it to discard pass-disabled builds whose
// .text is identical to the reference build.
func (b *Binary) TextHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	for i := range b.Code {
		in := &b.Code[i]
		mix(uint64(in.Op) | uint64(in.Sub)<<8 |
			uint64(in.A)<<16 | uint64(in.B)<<24 |
			uint64(in.C)<<32 | uint64(in.D)<<40)
		mix(uint64(in.Imm))
	}
	for i := range b.Funcs {
		f := &b.Funcs[i]
		for _, c := range f.Name {
			mix(uint64(c))
		}
		mix(uint64(f.Start))
		mix(uint64(f.NumSlots))
	}
	for i := range b.Globals {
		g := &b.Globals[i]
		mix(uint64(g.Init))
		if g.IsArray {
			mix(1)
		}
	}
	return h
}

func (o Op) String() string {
	names := [...]string{
		"nop", "prolog", "const", "mov", "bin", "binimm", "neg", "not",
		"select", "loadslot", "storeslot", "loadparam", "gload", "gstore",
		"newarr", "aload", "astore", "len", "vload2", "vbin", "vstore2",
		"arg", "call", "ret", "jmp", "br", "print",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op%d", int(o))
}
