// Package passes implements the MiniC middle-end optimization passes.
//
// Each pass transforms SSA IR and carries the same debug-metadata
// obligations a production compiler pass has:
//
//   - replacing a value must rewrite or drop the OpDbgValue markers bound
//     to it (the salvage policy differs between the gcc-like and
//     clang-like profiles, which is one source of the paper's
//     cross-compiler differences in Table IV);
//   - deleting a value turns its DbgValues into "optimized out";
//   - moving code across blocks clears the instruction's source line,
//     exactly as LLVM's hoist/sink utilities do, which removes entries
//     from the line table.
//
// DebugTuner measures the aggregate effect of these obligations being
// imperfectly dischargeable.
package passes

import (
	"fmt"
	"time"

	"debugtuner/internal/ir"
	"debugtuner/internal/telemetry"
)

// Context carries compilation-wide settings into passes.
type Context struct {
	Prog *ir.Program

	// PassName is the name of the pass currently executing under
	// (*Pass).Run, set only while telemetry is enabled; the debug
	// helpers use it to attribute damage events to the responsible
	// toggle.
	PassName string

	// RunLabel, when nonempty, overrides the ledger attribution name
	// for the next pass execution. The pipeline labels its always-on
	// cleanup entries "cleanup/<name>" so the damage report can rank
	// user-visible toggles separately from mandatory bookkeeping runs
	// that no configuration can disable.
	RunLabel string

	// Salvage selects the clang-like debug policy: on replace-all-uses,
	// DbgValues follow the replacement value unconditionally. The
	// gcc-like policy (false) only follows replacements within the same
	// block and drops the binding otherwise.
	Salvage bool

	// InlineBudget is the cost threshold for the general inliner.
	InlineBudget int
	// InlineSmall enables inlining of very small callees
	// (inline-small-functions).
	InlineSmall bool
	// InlineOnce enables inlining of functions called exactly once
	// (inline-fncs-called-once).
	InlineOnce bool
	// InlineGrowth enables the aggressive growth inliner
	// (inline-functions at O2/O3).
	InlineGrowth bool
	// UnitAtATime is set by toplevel-reorder: the inliner may inline
	// callees defined later in the file.
	UnitAtATime bool

	// UnrollFactor is the partial unroll factor (0 disables partial
	// unrolling); full unrolling of tiny constant-trip loops is always
	// considered when loop-unroll runs.
	UnrollFactor int

	// SampleLines is an AutoFDO line profile: the inliner boosts hot
	// call sites and shrinks cold ones. Nil without a profile.
	SampleLines map[int]int64
	// SampleMax is the hottest line's sample count.
	SampleMax int64
}

// Clone returns a copy of the context over a deep copy of its module,
// so a paused pipeline can be resumed more than once. The settings are
// copied by value; the sample profile is read-only and shared.
func (ctx *Context) Clone() *Context {
	c := *ctx
	c.Prog = ctx.Prog.Clone()
	return &c
}

// CallHeat classifies a call site's line under the sample profile:
// +1 hot, -1 cold, 0 unknown/no profile.
func (ctx *Context) CallHeat(line int) int {
	if ctx.SampleLines == nil || ctx.SampleMax == 0 {
		return 0
	}
	c := ctx.SampleLines[line]
	switch {
	case float64(c) >= float64(ctx.SampleMax)/8:
		return 1
	case c == 0:
		return -1
	}
	return 0
}

// Pass is a registered optimization pass.
type Pass struct {
	// Name is the toggle name used by optimization levels and by
	// DebugTuner's pass-disabling machinery.
	Name string
	// Backend marks passes that run on the lower-level representation
	// (annotated '*' in the paper's tables). Backend passes live in the
	// codegen package; they are registered here for naming only.
	Backend bool
	// RunFunc runs the pass on one function and reports whether it
	// changed anything. Nil for module passes.
	RunFunc func(ctx *Context, f *ir.Func) bool
	// RunModule runs the pass once per program.
	RunModule func(ctx *Context) bool
}

var registry = map[string]*Pass{}

// Register adds a pass to the registry; duplicate names panic at init.
func Register(p *Pass) *Pass {
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("passes: duplicate pass %q", p.Name))
	}
	registry[p.Name] = p
	return p
}

// Lookup finds a pass by name, or nil.
func Lookup(name string) *Pass { return registry[name] }

// Run executes the pass over the whole program. With telemetry enabled
// it additionally records, per function, the pass's wall time,
// instruction delta, and debug-damage events (see damage.go); the
// disabled path pays one atomic pointer load.
func (p *Pass) Run(ctx *Context) bool {
	snk := telemetry.Active()
	if snk == nil {
		return p.run(ctx)
	}
	return p.runInstrumented(ctx, snk)
}

// run is the uninstrumented execution path.
func (p *Pass) run(ctx *Context) bool {
	if p.RunModule != nil {
		return p.RunModule(ctx)
	}
	changed := false
	for _, f := range ctx.Prog.Funcs {
		if p.RunFunc(ctx, f) {
			changed = true
		}
	}
	return changed
}

// runInstrumented wraps each function's transformation in a
// before/after debug-metadata snapshot and folds the diff into the
// sink's ledger under this pass's name.
func (p *Pass) runInstrumented(ctx *Context, snk *telemetry.Sink) bool {
	name := p.Name
	if ctx.RunLabel != "" {
		name = ctx.RunLabel
	}
	prev := ctx.PassName
	ctx.PassName = name
	defer func() { ctx.PassName = prev }()

	if p.RunModule != nil {
		snaps := make([]*funcSnap, len(ctx.Prog.Funcs))
		for i, f := range ctx.Prog.Funcs {
			snaps[i] = snapPool.Get().(*funcSnap)
			snaps[i].take(f)
		}
		t0 := time.Now()
		changed := p.RunModule(ctx)
		wall := time.Since(t0).Nanoseconds()
		// Module passes (the inliner, toplevel-reorder) transform the
		// whole program at once; their wall time is split evenly over
		// the surviving functions.
		if n := int64(len(ctx.Prog.Funcs)); n > 0 {
			wall /= n
		}
		for _, f := range ctx.Prog.Funcs {
			// A function the pass created has no snapshot and
			// contributes nothing but the run.
			var d telemetry.Damage
			for _, s := range snaps {
				if s.name == f.Name {
					d = s.diff(f)
					break
				}
			}
			d.Runs, d.WallNS = 1, wall
			snk.AddDamage(name, f.Name, d)
		}
		for _, s := range snaps {
			snapPool.Put(s)
		}
		return changed
	}

	s := snapPool.Get().(*funcSnap)
	defer snapPool.Put(s)
	changed := false
	for _, f := range ctx.Prog.Funcs {
		s.take(f)
		t0 := time.Now()
		if p.RunFunc(ctx, f) {
			changed = true
		}
		wall := time.Since(t0).Nanoseconds()
		d := s.diff(f)
		d.Runs, d.WallNS = 1, wall
		snk.AddDamage(name, f.Name, d)
	}
	return changed
}

// ---- Debug metadata helpers ----

// RAUW replaces every use of old with new_, applying the context's debug
// salvage policy to DbgValue uses: under the clang-like policy the
// binding follows the replacement; under the gcc-like policy it follows
// only when the replacement lives in the same block as the old value,
// and is dropped ("optimized out") otherwise.
func RAUW(ctx *Context, f *ir.Func, old, new_ *ir.Value) {
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			for i, a := range v.Args {
				if a != old {
					continue
				}
				if v.Op == ir.OpDbgValue {
					if ctx.Salvage || new_.Block == old.Block {
						v.Args[i] = new_
						if ctx.PassName != "" {
							telemetry.AddDamage(ctx.PassName, f.Name,
								telemetry.Damage{DbgSalvaged: 1})
						}
					} else {
						v.Args = nil
						// A gcc-policy cross-block drop ends the
						// variable's location range at the
						// replacement point. The binding loss itself
						// is counted by the pass-level snapshot diff.
						if ctx.PassName != "" {
							telemetry.AddDamage(ctx.PassName, f.Name,
								telemetry.Damage{RangesEnded: 1})
						}
					}
					continue
				}
				v.Args[i] = new_
			}
		}
	}
}

// DropDefDebug marks every DbgValue bound to v as optimized out. Called
// when v is deleted without a replacement.
func DropDefDebug(f *ir.Func, v *ir.Value) {
	for _, b := range f.Blocks {
		for _, w := range b.Instrs {
			if w.Op == ir.OpDbgValue && len(w.Args) == 1 && w.Args[0] == v {
				w.Args = nil
			}
		}
	}
}

// CodeUseCounts counts uses excluding DbgValue references: debug markers
// never keep a value alive, mirroring LLVM.
func CodeUseCounts(f *ir.Func) []int {
	uses := make([]int, f.NumValueIDs())
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpDbgValue {
				continue
			}
			for _, a := range v.Args {
				uses[a.ID]++
			}
		}
	}
	return uses
}

// MoveToBlockEnd moves v before the terminator of dst, clearing its
// source line when it crosses blocks (the hoist/sink line-drop rule).
func MoveToBlockEnd(v *ir.Value, dst *ir.Block) {
	if v.Block == dst {
		return
	}
	ir.RemoveValue(v)
	v.Block = dst
	v.Line = 0
	n := len(dst.Instrs)
	if n > 0 && dst.Instrs[n-1].Op.IsTerminator() {
		dst.Instrs = append(dst.Instrs, nil)
		copy(dst.Instrs[n:], dst.Instrs[n-1:])
		dst.Instrs[n-1] = v
	} else {
		dst.Instrs = append(dst.Instrs, v)
	}
}

// IsRemovable reports whether v can be deleted when it has no code uses.
// Fresh allocations are removable despite being "writes": an unused
// handle is unobservable under MiniC semantics. Calls are removable only
// when the callee is known pure.
func IsRemovable(prog *ir.Program, v *ir.Value) bool {
	switch {
	case v.Op.IsPure(), v.Op.IsMemRead(), v.Op == ir.OpNewArray:
		return true
	case v.Op == ir.OpCall:
		callee := prog.Func(v.Aux)
		return callee != nil && callee.Pure
	}
	return false
}
