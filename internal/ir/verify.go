package ir

import "fmt"

// Verify checks structural invariants of the function's IR and returns
// the first violation found, or nil. Passes run it after themselves in
// tests, catching metadata and CFG corruption early.
func Verify(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", f.Name)
	}
	// Instruction IDs index dense per-function tables (the damage
	// ledger's snapshot among them): each lies in [0, NumValueIDs())
	// and no two instructions share one. byID is also the membership
	// test for arguments.
	byID := make([]*Value, f.NumValueIDs())
	blockSet := map[*Block]bool{}
	for _, b := range f.Blocks {
		blockSet[b] = true
		for _, v := range b.Instrs {
			if v.Block != b {
				return fmt.Errorf("%s: %v claims block %v but lives in %v", f.Name, v, v.Block, b)
			}
			if v.ID < 0 || v.ID >= len(byID) {
				return fmt.Errorf("%s: %v: %v has ID outside [0, %d)", f.Name, b, v, len(byID))
			}
			if byID[v.ID] != nil {
				return fmt.Errorf("%s: %v: two instructions share ID %d", f.Name, b, v.ID)
			}
			byID[v.ID] = v
		}
	}
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			return fmt.Errorf("%s: %v has no terminator", f.Name, b)
		}
		for i, v := range b.Instrs {
			if v.Op.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("%s: %v: terminator %v not last", f.Name, b, v)
			}
			if v.Op == OpPhi {
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return fmt.Errorf("%s: %v: phi %v not in phi prefix", f.Name, b, v)
				}
				if len(v.Args) != len(b.Preds) {
					return fmt.Errorf("%s: %v: phi %v has %d args for %d preds",
						f.Name, b, v, len(v.Args), len(b.Preds))
				}
			}
			if v.Op == OpDbgValue && v.Var == nil {
				return fmt.Errorf("%s: %v: dbg.value without variable", f.Name, b)
			}
			// Debug-location validity: a line is either a real source line
			// or the explicit 0 ("artificial") sentinel — never negative,
			// never beyond the source extent recorded on the module.
			if v.Line < 0 {
				return fmt.Errorf("%s: %v: %v has negative line %d", f.Name, b, v, v.Line)
			}
			if f.Prog != nil && f.Prog.MaxLine > 0 && v.Line > f.Prog.MaxLine {
				return fmt.Errorf("%s: %v: %v line %d beyond source extent %d",
					f.Name, b, v, v.Line, f.Prog.MaxLine)
			}
			for _, a := range v.Args {
				if a == nil {
					return fmt.Errorf("%s: %v: %v has nil arg", f.Name, b, v)
				}
				if a.ID < 0 || a.ID >= len(byID) || byID[a.ID] != a {
					return fmt.Errorf("%s: %v: %v uses foreign value %v", f.Name, b, v, a)
				}
				if !a.Op.HasResult() {
					return fmt.Errorf("%s: %v: %v uses resultless %v (%v)", f.Name, b, v, a, a.Op)
				}
			}
		}
		wantSuccs := 0
		switch t.Op {
		case OpJmp:
			wantSuccs = 1
		case OpBr:
			wantSuccs = 2
			if len(t.Args) != 1 {
				return fmt.Errorf("%s: %v: br with %d args", f.Name, b, len(t.Args))
			}
		case OpRet:
			wantSuccs = 0
		}
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("%s: %v: %v terminator with %d succs", f.Name, b, t.Op, len(b.Succs))
		}
		for _, s := range b.Succs {
			if !blockSet[s] {
				return fmt.Errorf("%s: %v: succ %v not in function", f.Name, b, s)
			}
			if predIndex(s, b) < 0 {
				return fmt.Errorf("%s: %v: succ %v missing back-pointer", f.Name, b, s)
			}
		}
		for _, p := range b.Preds {
			if !blockSet[p] {
				return fmt.Errorf("%s: %v: pred %v not in function", f.Name, b, p)
			}
			found := false
			for _, s := range p.Succs {
				if s == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: %v: pred %v does not list it as succ", f.Name, b, p)
			}
		}
	}
	return nil
}

// VerifyProgram verifies all functions.
func VerifyProgram(p *Program) error {
	for _, f := range p.Funcs {
		if err := Verify(f); err != nil {
			return err
		}
	}
	return nil
}
