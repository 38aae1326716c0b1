package staticdbg_test

import (
	"testing"

	"debugtuner/internal/ast"
	"debugtuner/internal/ir"
	"debugtuner/internal/staticdbg"
)

// newModule builds a one-function module with an empty entry block and
// one symbol-table variable, the minimal substrate for seeding one
// violation at a time.
func newModule() (*ir.Program, *ir.Func, *ir.Block, *ast.Symbol) {
	prog := &ir.Program{}
	f := &ir.Func{Name: "f", Prog: prog}
	prog.Funcs = append(prog.Funcs, f)
	b := f.NewBlock()
	sym := &ast.Symbol{Name: "x", Type: ast.TypeInt, Kind: ast.SymLocal, Func: "f", ID: 0}
	prog.Symbols = append(prog.Symbols, sym)
	return prog, f, b, sym
}

// one asserts the module yields exactly one violation with the expected
// rule and rendered diagnostic.
func one(t *testing.T, prog *ir.Program, rule staticdbg.Rule, want string) {
	t.Helper()
	vs := staticdbg.CheckModule(prog)
	if len(vs) != 1 {
		t.Fatalf("got %d violations %v, want 1", len(vs), staticdbg.Strings(vs))
	}
	if vs[0].Rule != rule {
		t.Errorf("rule = %q, want %q", vs[0].Rule, rule)
	}
	if got := vs[0].String(); got != want {
		t.Errorf("diagnostic:\n got %q\nwant %q", got, want)
	}
}

func TestCheckModuleCleanModule(t *testing.T) {
	prog, f, b, sym := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	d := f.NewValue(b, ir.OpDbgValue, 0, c)
	d.Var = sym
	ret := f.NewValue(b, ir.OpRet, 1, c)
	b.Instrs = append(b.Instrs, c, d, ret)
	if vs := staticdbg.CheckModule(prog); len(vs) != 0 {
		t.Fatalf("clean module flagged: %v", staticdbg.Strings(vs))
	}
}

func TestRuleLineRangeNegative(t *testing.T) {
	prog, f, b, _ := newModule()
	v := f.NewValue(b, ir.OpConst, -1)
	b.Instrs = append(b.Instrs, v)
	one(t, prog, staticdbg.RuleLineRange, "[line-range] f v0: negative line -1")
}

func TestRuleLineRangeBeyondExtent(t *testing.T) {
	prog, f, b, _ := newModule()
	prog.MaxLine = 3
	v := f.NewValue(b, ir.OpConst, 9)
	b.Instrs = append(b.Instrs, v)
	one(t, prog, staticdbg.RuleLineRange, "[line-range] f v0: line 9 beyond source extent 3")
}

func TestRuleDbgOrphanNoVariable(t *testing.T) {
	prog, f, b, _ := newModule()
	d := f.NewValue(b, ir.OpDbgValue, 0)
	b.Instrs = append(b.Instrs, d)
	one(t, prog, staticdbg.RuleDbgOrphan, "[dbg-orphan] f v0: dbg.value without a variable")
}

func TestRuleDbgOrphanTooManyArgs(t *testing.T) {
	prog, f, b, sym := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	c2 := f.NewValue(b, ir.OpConst, 1)
	d := f.NewValue(b, ir.OpDbgValue, 0, c, c2)
	d.Var = sym
	b.Instrs = append(b.Instrs, c, c2, d)
	one(t, prog, staticdbg.RuleDbgOrphan, "[dbg-orphan] f v2: dbg.value with 2 args (want 0 or 1)")
}

func TestRuleDbgOrphanDanglingReference(t *testing.T) {
	prog, f, b, sym := newModule()
	// The bound value is never placed in the function — exactly what a
	// DCE that forgets its dbg.value users leaves behind.
	gone := f.NewValue(b, ir.OpConst, 1)
	d := f.NewValue(b, ir.OpDbgValue, 0, gone)
	d.Var = sym
	b.Instrs = append(b.Instrs, d)
	one(t, prog, staticdbg.RuleDbgOrphan,
		"[dbg-orphan] f v1: dangling reference to v0 (value no longer in f)")
}

func TestRuleDbgOrphanResultlessBinding(t *testing.T) {
	prog, f, b, sym := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	p := f.NewValue(b, ir.OpPrint, 1, c)
	d := f.NewValue(b, ir.OpDbgValue, 0, p)
	d.Var = sym
	b.Instrs = append(b.Instrs, c, p, d)
	one(t, prog, staticdbg.RuleDbgOrphan, "[dbg-orphan] f v2: binds resultless v1 (print)")
}

func TestRuleDbgDominanceSameBlock(t *testing.T) {
	prog, f, b, sym := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	d := f.NewValue(b, ir.OpDbgValue, 0, c)
	d.Var = sym
	// The binding precedes the definition — a hoisted dbg.value.
	b.Instrs = append(b.Instrs, d, c)
	one(t, prog, staticdbg.RuleDbgDominance,
		"[dbg-dominance] f v1: bound value v0 defined after its binding in b0")
}

func TestRuleDbgDominanceCrossBlock(t *testing.T) {
	prog, f, entry, sym := newModule()
	left := f.NewBlock()
	right := f.NewBlock()
	cond := f.NewValue(entry, ir.OpParam, 1)
	br := f.NewValue(entry, ir.OpBr, 1, cond)
	entry.Instrs = append(entry.Instrs, cond, br)
	ir.AddEdge(entry, left)
	ir.AddEdge(entry, right)
	c := f.NewValue(left, ir.OpConst, 1)
	lr := f.NewValue(left, ir.OpRet, 1, c)
	left.Instrs = append(left.Instrs, c, lr)
	// right is not dominated by left, yet binds left's value.
	d := f.NewValue(right, ir.OpDbgValue, 0, c)
	d.Var = sym
	rr := f.NewValue(right, ir.OpRet, 1)
	right.Instrs = append(right.Instrs, d, rr)
	one(t, prog, staticdbg.RuleDbgDominance,
		"[dbg-dominance] f v4: bound value v2 in b1 does not dominate binding in b2")
}

func TestDominanceSkippedInUnreachableBlocks(t *testing.T) {
	prog, f, entry, sym := newModule()
	ret := f.NewValue(entry, ir.OpRet, 1)
	entry.Instrs = append(entry.Instrs, ret)
	// An orphan block (transient between a pass and the next cleanup):
	// dominance there is meaningless and must not be flagged.
	dead := f.NewBlock()
	c := f.NewValue(dead, ir.OpConst, 1)
	d := f.NewValue(dead, ir.OpDbgValue, 0, c)
	d.Var = sym
	dr := f.NewValue(dead, ir.OpRet, 1)
	dead.Instrs = append(dead.Instrs, d, c, dr)
	if vs := staticdbg.CheckModule(prog); len(vs) != 0 {
		t.Fatalf("unreachable block flagged: %v", staticdbg.Strings(vs))
	}
}

func TestRuleScopeNestingForeignSymbol(t *testing.T) {
	prog, f, b, _ := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	d := f.NewValue(b, ir.OpDbgValue, 0, c)
	// Same ID as the table's slot 0 but a different object: scope
	// identity is pointer identity, not ID equality.
	d.Var = &ast.Symbol{Name: "ghost", Type: ast.TypeInt, Kind: ast.SymLocal, Func: "f", ID: 0}
	b.Instrs = append(b.Instrs, c, d)
	one(t, prog, staticdbg.RuleScopeNesting,
		"[scope-nesting] f v1: variable ghost (sym 0) is not a member of the module symbol table")
}

func TestRulesListsEveryRuleOnce(t *testing.T) {
	rules := staticdbg.Rules()
	if len(rules) != 15 {
		t.Fatalf("Rules() lists %d rules, want 15", len(rules))
	}
	seen := map[staticdbg.Rule]bool{}
	for _, r := range rules {
		if seen[r] {
			t.Errorf("rule %q listed twice", r)
		}
		seen[r] = true
	}
}

func TestViolationStringModuleLevel(t *testing.T) {
	v := staticdbg.Violation{Rule: staticdbg.RuleSection, Detail: "binary has no debug section"}
	if got, want := v.String(), "[section] module: binary has no debug section"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestValueIndexToleratesCollidingIDs: values are indexed by ID, and a
// value whose ID another placed value already holds (a foreign value
// spliced in by a buggy pass) must still count as placed, with its own
// position: a binding to it is neither dangling nor out of order.
func TestValueIndexToleratesCollidingIDs(t *testing.T) {
	prog, f, b, sym := newModule()
	c := f.NewValue(b, ir.OpConst, 1)
	twin := &ir.Value{Op: ir.OpConst, ID: c.ID, Block: b, Line: 1}
	d := f.NewValue(b, ir.OpDbgValue, 0, twin)
	d.Var = sym
	ret := f.NewValue(b, ir.OpRet, 1, c)
	b.Instrs = append(b.Instrs, c, twin, d, ret)
	if vs := staticdbg.CheckModule(prog); len(vs) != 0 {
		t.Fatalf("colliding IDs misjudged: %v", staticdbg.Strings(vs))
	}
	// Bound before its definition: still caught through the overflow.
	b.Instrs = []*ir.Value{c, d, twin, ret}
	one(t, prog, staticdbg.RuleDbgDominance,
		"[dbg-dominance] f v1: bound value v0 defined after its binding in b0")
}
