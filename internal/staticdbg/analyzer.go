package staticdbg

import (
	"fmt"

	"debugtuner/internal/dataflow"
	"debugtuner/internal/ir"
)

// CheckModule runs the IR-level rule set over every function of the
// module and returns the violations found, in deterministic program
// order. It assumes the module already passes ir.Verify's structural
// checks (a structurally broken module may produce noise here); the
// verify-each driver runs both and reports both.
func CheckModule(prog *ir.Program) []Violation {
	var out []Violation
	for _, f := range prog.Funcs {
		out = append(out, checkFunc(prog, f)...)
	}
	return out
}

func checkFunc(prog *ir.Program, f *ir.Func) []Violation {
	var out []Violation
	bad := func(rule Rule, entity, format string, args ...any) {
		out = append(out, Violation{
			Rule: rule, Func: f.Name, Entity: entity,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Positions of every value for same-block dominance, plus the value
	// set for dangling-reference detection: dense by value ID, with the
	// value whose ID is out of range or taken by another value (corrupt
	// IR only) kept in an overflow map.
	byID := make([]*ir.Value, f.NumValueIDs())
	idPos := make([]int32, f.NumValueIDs())
	var overflow map[*ir.Value]int
	for _, b := range f.Blocks {
		for i, v := range b.Instrs {
			if v.ID >= 0 && v.ID < len(byID) && (byID[v.ID] == nil || byID[v.ID] == v) {
				byID[v.ID], idPos[v.ID] = v, int32(i)
				continue
			}
			if overflow == nil {
				overflow = map[*ir.Value]int{}
			}
			overflow[v] = i
		}
	}
	pos := func(v *ir.Value) (int, bool) {
		if v.ID >= 0 && v.ID < len(byID) && byID[v.ID] == v {
			return int(idPos[v.ID]), true
		}
		i, ok := overflow[v]
		return i, ok
	}
	inFunc := func(v *ir.Value) bool {
		_, ok := pos(v)
		return ok
	}
	// Dominators and reachability are computed lazily: most modules have
	// few dbg.values relative to instructions, and unreachable blocks
	// (transient between a pass and the next cleanup) have no meaningful
	// dominance, so their bindings are skipped rather than misjudged.
	var idom map[*ir.Block]*ir.Block
	var reach map[*ir.Block]bool

	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Line < 0 {
				bad(RuleLineRange, v.String(), "negative line %d", v.Line)
			} else if prog.MaxLine > 0 && v.Line > prog.MaxLine {
				bad(RuleLineRange, v.String(),
					"line %d beyond source extent %d", v.Line, prog.MaxLine)
			}
			if v.Op != ir.OpDbgValue {
				continue
			}
			if v.Var == nil {
				bad(RuleDbgOrphan, v.String(), "dbg.value without a variable")
			} else if sid := v.Var.ID; sid < 0 || sid >= len(prog.Symbols) ||
				prog.Symbols[sid] != v.Var {
				bad(RuleScopeNesting, v.String(),
					"variable %s (sym %d) is not a member of the module symbol table",
					v.Var.Name, sid)
			}
			switch {
			case len(v.Args) > 1:
				bad(RuleDbgOrphan, v.String(),
					"dbg.value with %d args (want 0 or 1)", len(v.Args))
			case len(v.Args) == 1:
				a := v.Args[0]
				switch {
				case a == nil:
					bad(RuleDbgOrphan, v.String(), "dbg.value with nil bound value")
				case !inFunc(a):
					bad(RuleDbgOrphan, v.String(),
						"dangling reference to %v (value no longer in %s)", a, f.Name)
				case !a.Op.HasResult():
					bad(RuleDbgOrphan, v.String(),
						"binds resultless %v (%v)", a, a.Op)
				default:
					if idom == nil {
						idom = ir.Dominators(f)
						reach = dataflow.ReachableBlocks(f)
					}
					if !reach[v.Block] || !reach[a.Block] {
						break // dominance is meaningless off the CFG
					}
					if a.Block == v.Block {
						pa, _ := pos(a)
						if pv, _ := pos(v); pa > pv {
							bad(RuleDbgDominance, v.String(),
								"bound value %v defined after its binding in %v", a, v.Block)
						}
					} else if !ir.Dominates(idom, a.Block, v.Block) {
						bad(RuleDbgDominance, v.String(),
							"bound value %v in %v does not dominate binding in %v",
							a, a.Block, v.Block)
					}
				}
			}
		}
	}
	return out
}
