// Package codegen is the MiniC back end: it lowers SSA IR to machine IR
// with virtual registers, runs the back-end optimization passes the paper
// ranks (scheduling, block placement, cross-jumping, machine sinking,
// shrink-wrapping, spill-slot sharing, TER, variable coalescing),
// allocates registers, and emits a vm.Binary together with its
// debug-information section.
package codegen

import (
	"debugtuner/internal/ast"
	"debugtuner/internal/vm"
)

// Options selects back-end behavior. Each field corresponds to a
// DebugTuner-visible pass toggle; pipeline.Config translates the enabled
// pass set into this struct.
type Options struct {
	// TER folds single-use constants into immediate operands
	// (gcc tree-ter).
	TER bool
	// MachineSink moves pure machine instructions into the successor
	// block that uses them (clang "Machine code sinking").
	MachineSink bool
	// Schedule enables pre-RA list scheduling to hide load latency
	// (gcc schedule-insns2).
	Schedule bool
	// Layout enables hot-path block placement (gcc reorder-blocks /
	// clang "Branch Prob BB Placement").
	Layout bool
	// CrossJump merges identical block suffixes post-RA
	// (gcc crossjumping / clang "Control Flow Optimizer").
	CrossJump bool
	// ShrinkWrap sinks the prologue to the first frame-using block.
	ShrinkWrap bool
	// ShareSpillSlots lets non-overlapping spill intervals share frame
	// slots (gcc ira-share-spill-slots).
	ShareSpillSlots bool
	// CoalesceVars biases the allocator to assign move-related
	// intervals one register and deletes the moves
	// (gcc tree-coalesce-vars).
	CoalesceVars bool
	// PassNames maps backend stage ids ("schedule", "layout",
	// "crossjump", "shrink-wrap", "machine-sink") to the profile
	// toggle name that enabled the stage ("schedule-insns2",
	// "reorder-blocks" vs "block-placement", ...). pipeline fills it;
	// telemetry attributes backend damage and timing to these names.
	PassNames map[string]string
	// OptimisticRanges keeps a variable's register location open until
	// the next binding or function end even after the register is
	// clobbered — the gcc-profile behavior whose overestimation the
	// static metric counts. The precise policy (clang-like) closes the
	// entry at the clobber.
	OptimisticRanges bool
	// ForProfiling mirrors -fdebug-info-for-profiling.
	ForProfiling bool
}

// mDbg is the machine pseudo-op for a debug binding marker. It emits no
// code; the emitter turns runs of markers into location-list entries and
// owner tags.
const mDbg vm.Op = 200

// Debug marker kinds (MInstr.Sub for mDbg).
const (
	dbgNone  = 0 // variable optimized out from here
	dbgVReg  = 1 // variable's value lives in vreg A
	dbgConst = 2 // variable's value is the constant Imm
)

// MInstr is one machine instruction. Before register allocation A-D hold
// virtual register numbers (-1 = unused); after allocation they hold
// physical registers.
type MInstr struct {
	Op   vm.Op
	Sub  uint8
	A    int
	B    int
	C    int
	D    int
	Imm  int64
	Line int

	// Var is the bound variable for mDbg markers.
	Var *ast.Symbol

	// stamp is the instruction's index in the damage ledger's last
	// snapshot (see mirSnap).
	stamp int32
}

// MBlock is a machine basic block.
type MBlock struct {
	ID     int
	Instrs []*MInstr
	// Succs: for a trailing Br, Succs[0] is taken and Succs[1] falls
	// through; for Jmp, Succs[0]; none for Ret.
	Succs []*MBlock
	Preds []*MBlock
	Freq  float64
	Prob  float64
}

// Term returns the trailing control-flow instruction, or nil.
func (b *MBlock) Term() *MInstr {
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in.Op == mDbg {
			continue
		}
		switch in.Op {
		case vm.OpJmp, vm.OpBr, vm.OpRet:
			return in
		}
		return nil
	}
	return nil
}

// MFunc is one function in machine form.
type MFunc struct {
	Name      string
	Blocks    []*MBlock
	NumVRegs  int
	NumSlots  int // home slots; spill slots are appended by the allocator
	SlotVars  []*ast.Symbol
	NParams   int
	StartLine int
	Pure      bool

	// prologBlock receives the OpProlog instruction (entry by default,
	// moved by shrink-wrapping).
	prologBlock *MBlock
}

func (f *MFunc) newVReg() int {
	f.NumVRegs++
	return f.NumVRegs - 1
}

// readsOf appends the vregs the instruction reads.
func readsOf(in *MInstr, out []int) []int {
	switch in.Op {
	case vm.OpMov, vm.OpNeg, vm.OpNot, vm.OpStoreSlot, vm.OpGStore,
		vm.OpNewArr, vm.OpLen, vm.OpArg, vm.OpPrint, vm.OpBr, vm.OpBinImm:
		out = append(out, in.A)
	case vm.OpBin, vm.OpVBin:
		out = append(out, in.A, in.B)
	case vm.OpSelect, vm.OpAStore, vm.OpVStore2:
		out = append(out, in.A, in.B, in.C)
	case vm.OpALoad, vm.OpVLoad2:
		out = append(out, in.A, in.B)
	case vm.OpRet:
		if in.Sub != 0 {
			out = append(out, in.A)
		}
	case mDbg:
		if in.Sub == dbgVReg {
			out = append(out, in.A)
		}
	}
	return out
}

// defOf returns the vreg the instruction writes, or -1.
func defOf(in *MInstr) int {
	switch in.Op {
	case vm.OpConst, vm.OpMov, vm.OpBin, vm.OpBinImm, vm.OpNeg, vm.OpNot,
		vm.OpSelect, vm.OpLoadSlot, vm.OpLoadParam, vm.OpGLoad,
		vm.OpNewArr, vm.OpALoad, vm.OpLen, vm.OpVLoad2, vm.OpVBin,
		vm.OpCall:
		return in.D
	}
	return -1
}

// hasSideEffect reports whether the instruction must not be reordered
// past other side-effecting instructions or removed.
func hasSideEffect(in *MInstr) bool {
	switch in.Op {
	case vm.OpStoreSlot, vm.OpGStore, vm.OpAStore, vm.OpVStore2,
		vm.OpArg, vm.OpCall, vm.OpPrint, vm.OpRet, vm.OpJmp, vm.OpBr,
		vm.OpProlog, vm.OpNewArr:
		return true
	}
	return false
}

// isMemRead reports whether the instruction reads mutable memory.
func isMemRead(in *MInstr) bool {
	switch in.Op {
	case vm.OpLoadSlot, vm.OpGLoad, vm.OpALoad, vm.OpVLoad2, vm.OpLoadParam:
		return true
	}
	return false
}
