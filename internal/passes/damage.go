package passes

import (
	"sync"

	"debugtuner/internal/ir"
	"debugtuner/internal/telemetry"
)

// The debug-damage ledger compares a function's debug metadata before
// and after each pass execution. Two event classes come from hooks
// inside the helpers (RAUW records salvages and gcc-policy range ends,
// which the diff cannot infer); everything else — bindings turned
// "optimized out" or deleted, line attributions zeroed or rewritten,
// instruction churn — falls out of the snapshot diff below.
//
// The snapshot is a dense table indexed by value ID. IDs are unique
// within a function and never reused: ir.Func.NewValue hands out the
// next one, clone keeps them, and ir.Verify checks both. So a value in
// the function after the pass with an ID below the snapshot's bound is
// the instruction snapshotted under that ID, and one at or above it is
// new. Tables are pooled, so a warm pass run allocates none.

// Slot kinds. Marker state lives in its own field, not in the line:
// any int is a possible line (staticdbg plants a marker at line -7).
const (
	slotNone  uint8 = iota // no instruction, an unbound marker, or visited
	slotInstr              // a non-debug instruction; line is its line
	slotBound              // a DbgValue marker carrying a binding
)

// snapSlot is one value ID's entry in the snapshot.
type snapSlot struct {
	line int
	kind uint8
}

// funcSnap is the per-function debug-metadata snapshot.
type funcSnap struct {
	// name is the function's name, which a module pass's diff matches
	// on.
	name string
	// instrs counts non-debug instructions.
	instrs int
	// slots is indexed by value ID, up to the function's NumValueIDs at
	// snapshot time.
	slots []snapSlot
}

var snapPool = sync.Pool{New: func() any { return new(funcSnap) }}

// take captures f's current debug metadata, reusing s's table.
func (s *funcSnap) take(f *ir.Func) {
	n := f.NumValueIDs()
	if cap(s.slots) < n {
		s.slots = make([]snapSlot, n)
	} else {
		s.slots = s.slots[:n]
		clear(s.slots)
	}
	s.name, s.instrs = f.Name, 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if uint(v.ID) >= uint(n) {
				continue // outside the invariant; the diff sees it as new
			}
			if v.Op == ir.OpDbgValue {
				if len(v.Args) > 0 {
					s.slots[v.ID].kind = slotBound
				}
				continue
			}
			s.instrs++
			s.slots[v.ID] = snapSlot{line: v.Line, kind: slotInstr}
		}
	}
}

// diff compares f against the snapshot and returns the damage delta.
// Each marker it visits clears its slot, so the bound slots left over
// are markers the pass deleted outright (if-conversion removes arm
// bindings, DCE sweeps already-dropped ones); they count as dropped.
func (s *funcSnap) diff(f *ir.Func) telemetry.Damage {
	var d telemetry.Damage
	instrs := 0
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			var old snapSlot
			if uint(v.ID) < uint(len(s.slots)) {
				old = s.slots[v.ID]
			}
			if v.Op == ir.OpDbgValue {
				if old.kind == slotBound {
					s.slots[v.ID].kind = slotNone
					if len(v.Args) == 0 {
						d.DbgDropped++
					}
				}
				continue
			}
			instrs++
			if old.kind == slotInstr && old.line != v.Line {
				if v.Line == 0 {
					d.LinesZeroed++
				} else {
					d.LinesChanged++
				}
			}
		}
	}
	for _, sl := range s.slots {
		if sl.kind == slotBound {
			d.DbgDropped++
		}
	}
	d.InstrDelta = int64(instrs - s.instrs)
	return d
}
