package passes

import (
	"debugtuner/internal/ir"
	"debugtuner/internal/telemetry"
)

// The map-based ledger the dense snapshot replaced, kept as its test
// oracle. Values are identified by pointer: passes mutate and move
// *ir.Value nodes but clone them only across functions (inlining), so a
// value present in both snapshots is the same instruction.

// oracleSnap is the oracle's per-function debug-metadata snapshot.
type oracleSnap struct {
	// instrs counts non-debug instructions.
	instrs int
	// lines maps each non-debug instruction to its source line.
	lines map[*ir.Value]int
	// bound maps each DbgValue marker to whether it carries a binding.
	bound map[*ir.Value]bool
}

// snapshotFunc captures f's current debug metadata.
func snapshotFunc(f *ir.Func) *oracleSnap {
	s := &oracleSnap{
		lines: map[*ir.Value]int{},
		bound: map[*ir.Value]bool{},
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpDbgValue {
				s.bound[v] = len(v.Args) > 0
				continue
			}
			s.instrs++
			s.lines[v] = v.Line
		}
	}
	return s
}

// diffFunc compares f against its snapshot and returns the damage
// delta. A nil snapshot (a function the pass created) contributes
// nothing.
func diffFunc(before *oracleSnap, f *ir.Func) telemetry.Damage {
	var d telemetry.Damage
	if before == nil {
		return d
	}
	instrs := 0
	present := map[*ir.Value]bool{}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpDbgValue {
				present[v] = true
				if before.bound[v] && len(v.Args) == 0 {
					d.DbgDropped++
				}
				continue
			}
			instrs++
			if old, ok := before.lines[v]; ok && old != v.Line {
				if v.Line == 0 {
					d.LinesZeroed++
				} else {
					d.LinesChanged++
				}
			}
		}
	}
	// Markers deleted outright (if-conversion removes arm bindings,
	// DCE sweeps already-dropped ones) count as dropped only if they
	// still carried a binding.
	for v, wasBound := range before.bound {
		if wasBound && !present[v] {
			d.DbgDropped++
		}
	}
	d.InstrDelta = int64(instrs - before.instrs)
	return d
}

// InstallOracle wraps every registered pass so that each run also
// diffs the functions it transformed with the oracle and hands record
// the delta (Runs 1, no wall time) under the run's ledger name — the
// same (pass, function) cells the dense ledger fills. Passes must run
// under a telemetry sink, which sets that name. It returns the undo.
func InstallOracle(record func(pass, fn string, d telemetry.Damage)) (restore func()) {
	var undo []func()
	for _, p := range registry {
		p := p
		if run := p.RunFunc; run != nil {
			p.RunFunc = func(ctx *Context, f *ir.Func) bool {
				before := snapshotFunc(f)
				changed := run(ctx, f)
				d := diffFunc(before, f)
				d.Runs = 1
				record(ctx.PassName, f.Name, d)
				return changed
			}
			undo = append(undo, func() { p.RunFunc = run })
		}
		if run := p.RunModule; run != nil {
			p.RunModule = func(ctx *Context) bool {
				before := map[string]*oracleSnap{}
				for _, f := range ctx.Prog.Funcs {
					before[f.Name] = snapshotFunc(f)
				}
				changed := run(ctx)
				for _, f := range ctx.Prog.Funcs {
					d := diffFunc(before[f.Name], f)
					d.Runs = 1
					record(ctx.PassName, f.Name, d)
				}
				return changed
			}
			undo = append(undo, func() { p.RunModule = run })
		}
	}
	return func() {
		for _, u := range undo {
			u()
		}
	}
}
