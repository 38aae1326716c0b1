package difftest

import (
	"math"
	"testing"

	"debugtuner/internal/ir"
	"debugtuner/internal/vm"
)

// binOpSub mirrors codegen's binSubFor table: the IR opcode to VM
// sub-operation mapping the lowerer commits to. Keeping a copy here means
// a new binary opcode that misses either the folder, the VM, or this
// table fails the completeness check below.
var binOpSub = map[ir.Op]uint8{
	ir.OpAdd: vm.BinAdd, ir.OpSub: vm.BinSub, ir.OpMul: vm.BinMul,
	ir.OpDiv: vm.BinDiv, ir.OpRem: vm.BinRem, ir.OpAnd: vm.BinAnd,
	ir.OpOr: vm.BinOr, ir.OpXor: vm.BinXor, ir.OpShl: vm.BinShl,
	ir.OpShr: vm.BinShr, ir.OpEq: vm.BinEq, ir.OpNe: vm.BinNe,
	ir.OpLt: vm.BinLt, ir.OpLe: vm.BinLe, ir.OpGt: vm.BinGt,
	ir.OpGe: vm.BinGe,
}

// edgeValues covers every boundary MiniC's total semantics carves out:
// both int64 extremes (MinInt64/-1 wraps, MinInt64%-1 is 0), zero
// divisors, and shift counts straddling the 6-bit mask (64 behaves as 0,
// 65 as 1, -1 as 63).
var edgeValues = []int64{
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
	-65, -64, -63, -2, -1, 0, 1, 2, 3, 5, 31, 32, 62, 63, 64, 65, 127, 128,
}

// TestFolderMatchesVM locks the constant folder (ir.EvalBin, used by
// sccp/instcombine to fold at compile time) to the VM's runtime
// semantics (vm.EvalBinOp) over every binary opcode and the full edge
// grid. A divergence here is a miscompile: the folder would bake a value
// into the binary that the unoptimized build computes differently.
func TestFolderMatchesVM(t *testing.T) {
	if len(binOpSub) != int(vm.BinGe)+1 {
		t.Fatalf("mapping covers %d subcodes, VM defines %d", len(binOpSub), int(vm.BinGe)+1)
	}
	seen := map[uint8]bool{}
	for _, sub := range binOpSub {
		if seen[sub] {
			t.Fatalf("duplicate VM subcode %d in mapping", sub)
		}
		seen[sub] = true
	}
	for op, sub := range binOpSub {
		for _, x := range edgeValues {
			for _, y := range edgeValues {
				fold := ir.EvalBin(op, x, y)
				run := vm.EvalBinOp(sub, x, y)
				if fold != run {
					t.Errorf("%v(%d, %d): folder %d, VM %d", op, x, y, fold, run)
				}
			}
		}
	}
}

// TestFolderEdgeCaseAnchors pins the headline identities the language
// definition promises, independent of the cross-check above.
func TestFolderEdgeCaseAnchors(t *testing.T) {
	cases := []struct {
		op   ir.Op
		x, y int64
		want int64
	}{
		{ir.OpDiv, 7, 0, 0},
		{ir.OpRem, 7, 0, 0},
		{ir.OpDiv, math.MinInt64, -1, math.MinInt64},
		{ir.OpRem, math.MinInt64, -1, 0},
		{ir.OpShl, 1, 64, 1},             // count masked to 0
		{ir.OpShl, 1, 65, 2},             // count masked to 1
		{ir.OpShr, -1, 63, -1},           // arithmetic shift
		{ir.OpShl, 3, -1, math.MinInt64}, // -1 masks to 63; low set bit survives
		{ir.OpMul, math.MaxInt64, 2, -2}, // wrapping
	}
	for _, c := range cases {
		if got := ir.EvalBin(c.op, c.x, c.y); got != c.want {
			t.Errorf("EvalBin(%v, %d, %d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
		if got := vm.EvalBinOp(binOpSub[c.op], c.x, c.y); got != c.want {
			t.Errorf("EvalBinOp(%v, %d, %d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
	}
}
