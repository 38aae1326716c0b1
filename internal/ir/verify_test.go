package ir

import (
	"strings"
	"testing"
)

// TestVerifyRejectsStaleLines checks the debug-location validity rules:
// a line is a real source line or the 0 sentinel — never negative, and
// never beyond the module's recorded source extent (stale garbage left
// by a pass that copied attribution from the wrong instruction).
func TestVerifyRejectsStaleLines(t *testing.T) {
	prog, f := buildDiamond()
	prog.MaxLine = 2 // the diamond attributes lines up to 4
	err := Verify(f)
	if err == nil || !strings.Contains(err.Error(), "beyond source extent 2") {
		t.Fatalf("out-of-extent line not rejected, got %v", err)
	}

	_, f = buildDiamond()
	f.Blocks[0].Instrs[0].Line = -5
	err = Verify(f)
	if err == nil || !strings.Contains(err.Error(), "negative line -5") {
		t.Fatalf("negative line not rejected, got %v", err)
	}

	// Without a recorded extent any non-negative line is acceptable (a
	// module not built by irbuild, e.g. hand-constructed in tests).
	prog, f = buildDiamond()
	prog.MaxLine = 0
	f.Blocks[0].Instrs[0].Line = 9999
	if err := Verify(f); err != nil {
		t.Fatalf("unbounded module rejected: %v", err)
	}

	// The 0 sentinel is always valid, extent or not.
	prog, f = buildDiamond()
	prog.MaxLine = 4
	f.Blocks[0].Instrs[0].Line = 0
	if err := Verify(f); err != nil {
		t.Fatalf("artificial line rejected: %v", err)
	}
}

// TestVerifyRejectsSharedIDs: instruction IDs index dense per-function
// tables (the damage ledger's snapshot), so two instructions sharing an
// ID, or an ID the function never handed out, must fail Verify.
func TestVerifyRejectsSharedIDs(t *testing.T) {
	f := &Func{Name: "f"}
	b := f.NewBlock()
	c := f.NewValue(b, OpConst, 1)
	twin := &Value{Op: OpConst, ID: c.ID, Block: b, Line: 1}
	ret := f.NewValue(b, OpRet, 1, c)
	b.Instrs = []*Value{c, twin, ret}
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "two instructions share ID 0") {
		t.Fatalf("shared ID not rejected, got %v", err)
	}
	b.Instrs = []*Value{c, ret}
	if err := Verify(f); err != nil {
		t.Fatalf("well-formed function rejected: %v", err)
	}
	c.ID = f.NumValueIDs()
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "has ID outside [0, 2)") {
		t.Fatalf("unallocated ID not rejected, got %v", err)
	}
}
