package sema

import (
	"sort"

	"debugtuner/internal/ast"
	"debugtuner/internal/source"
)

// DefRanges records, for every variable, the source range over which the
// variable is both in scope and has been assigned. This is the static
// source analysis of DebugTuner stage 3 (§III.A): the hybrid metric clips
// a debugger trace with it so that a variable reported by the debugger
// before its source-level definition (a DWARF whole-scope location, the
// defect noted by Stinnett & Kell) does not inflate the baseline.
type DefRanges struct {
	info *Info
	// avail[id] is the clipped availability range for symbol id.
	avail []source.Range
	// byLine caches line -> symbol IDs expected available there.
	byLine map[int][]int
}

// ComputeDefRanges runs the definition-range analysis.
//
// The analysis is intentionally the same simple AST walk the paper's
// ~400-line Python tool performs: a variable becomes "expected available"
// at its first textual assignment inside its scope (its declaration when
// initialized, function entry for parameters, program start for globals)
// and stays expected until its scope ends.
func ComputeDefRanges(info *Info) *DefRanges {
	d := &DefRanges{
		info:   info,
		avail:  make([]source.Range, len(info.Symbols)),
		byLine: make(map[int][]int),
	}
	firstAssign := make([]source.Pos, len(info.Symbols))
	for _, sym := range info.Symbols {
		switch sym.Kind {
		case ast.SymGlobal:
			firstAssign[sym.ID] = source.Pos{Line: 1, Col: 1}
		case ast.SymParam:
			firstAssign[sym.ID] = sym.Scope.Start
		default:
			firstAssign[sym.ID] = source.Pos{} // not yet seen
		}
	}
	for _, f := range info.Program.Funcs {
		walkStmts(f.Body, func(s ast.Stmt) {
			switch s := s.(type) {
			case *ast.VarDecl:
				if s.Sym != nil && s.Init != nil {
					noteAssign(firstAssign, s.Sym, s.PosVal)
				}
			case *ast.Assign:
				if s.Target != nil && s.Target.Sym != nil {
					noteAssign(firstAssign, s.Target.Sym, s.PosVal)
				}
			}
		})
	}
	for _, sym := range info.Symbols {
		start := firstAssign[sym.ID]
		if !start.IsValid() {
			// Never assigned: expected nowhere; leave a zero (empty) range.
			continue
		}
		d.avail[sym.ID] = source.Range{Start: start, End: sym.Scope.End}
	}
	for _, sym := range info.Symbols {
		r := d.avail[sym.ID]
		if !r.Start.IsValid() {
			continue
		}
		for line := r.Start.Line; line < r.End.Line || (line == r.End.Line && r.End.Col > 1); line++ {
			d.byLine[line] = append(d.byLine[line], sym.ID)
			if line >= r.End.Line {
				break
			}
		}
	}
	for _, ids := range d.byLine {
		sort.Ints(ids)
	}
	return d
}

func noteAssign(first []source.Pos, sym *ast.Symbol, pos source.Pos) {
	if !first[sym.ID].IsValid() || pos.Before(first[sym.ID]) {
		first[sym.ID] = pos
	}
}

// InRange reports whether the symbol is expected available at the line.
func (d *DefRanges) InRange(symID, line int) bool {
	if symID < 0 || symID >= len(d.avail) {
		return false
	}
	r := d.avail[symID]
	if !r.Start.IsValid() {
		return false
	}
	return line >= r.Start.Line && (line < r.End.Line || (line == r.End.Line && r.End.Col > 1))
}

// ExpectedAt returns the IDs of symbols expected available at the line,
// sorted ascending.
func (d *DefRanges) ExpectedAt(line int) []int { return d.byLine[line] }

// StatementLines returns the set of source lines carrying a statement —
// the static method's notion of "lines that should be steppable",
// including dead and unreachable code (which is exactly why the static
// baseline is larger than the dynamic one, §II).
func StatementLines(info *Info) map[int]bool {
	lines := map[int]bool{}
	for _, f := range info.Program.Funcs {
		walkStmts(f.Body, func(s ast.Stmt) {
			if p := s.Pos(); p.IsValid() {
				lines[p.Line] = true
			}
		})
	}
	return lines
}

// walkStmts visits every statement in the block, recursively.
func walkStmts(b *ast.Block, visit func(ast.Stmt)) {
	for _, s := range b.Stmts {
		walkStmt(s, visit)
	}
}

func walkStmt(s ast.Stmt, visit func(ast.Stmt)) {
	visit(s)
	switch s := s.(type) {
	case *ast.If:
		walkStmts(s.Then, visit)
		if s.Else != nil {
			walkStmt(s.Else, visit)
		}
	case *ast.While:
		walkStmts(s.Body, visit)
	case *ast.For:
		if s.Init != nil {
			walkStmt(s.Init, visit)
		}
		walkStmts(s.Body, visit)
		if s.Post != nil {
			walkStmt(s.Post, visit)
		}
	case *ast.Block:
		walkStmts(s, visit)
	}
}
