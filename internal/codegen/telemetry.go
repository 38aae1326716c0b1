package codegen

import (
	"time"

	"debugtuner/internal/telemetry"
)

// Backend telemetry: each optional machine-IR stage is wrapped in a
// before/after snapshot of the MIR debug metadata, mirroring the
// mid-end ledger in internal/passes. Damage is attributed to the
// profile toggle that enabled the stage (Options.PassNames), so the
// passreport table speaks the same names as the paper's rankings.

// toggleName resolves a stage id to its enabling toggle.
func (o *Options) toggleName(stage string) string {
	if n := o.PassNames[stage]; n != "" {
		return n
	}
	return stage
}

// Slot kinds of the MIR snapshot. Marker state lives in its own field,
// not in the line: any int is a possible line.
const (
	slotNone  uint8 = iota // an unbound marker, or nothing to compare
	slotInstr              // a non-debug instruction; line is its line
	slotBound              // a marker carrying a binding
)

// mirSlot is one snapshotted instruction's entry.
type mirSlot struct {
	// in is the instruction, nil once the diff has visited it.
	in   *MInstr
	line int
	kind uint8
}

// mirSnap is the per-function machine-IR debug snapshot, one per
// Compile, reused across its stages and functions. MInstr has no ID, so
// take stamps each instruction with its index into slots; the diff
// trusts a stamp only when that slot holds the same pointer, since an
// instruction made during the stage carries a zero or copied stamp.
type mirSnap struct {
	instrs int
	slots  []mirSlot
	order  []*MBlock
}

// take captures mf's current debug metadata.
func (s *mirSnap) take(mf *MFunc) {
	s.instrs = 0
	s.slots = s.slots[:0]
	s.order = append(s.order[:0], mf.Blocks...)
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			in.stamp = int32(len(s.slots))
			sl := mirSlot{in: in}
			switch {
			case in.Op != mDbg:
				s.instrs++
				sl.line, sl.kind = in.Line, slotInstr
			case in.Sub != dbgNone:
				sl.kind = slotBound
			}
			s.slots = append(s.slots, sl)
		}
	}
}

// diff compares mf against the snapshot. It clears each slot it visits,
// so the slots left over are the instructions the stage deleted.
// Deleted instructions that carried a line count as zeroed (their rows
// vanish from the line table — cross-jumping's cost); deleted bound
// markers count as dropped.
func (s *mirSnap) diff(mf *MFunc) telemetry.Damage {
	var d telemetry.Damage
	instrs := 0
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			var old mirSlot
			if i := in.stamp; uint(i) < uint(len(s.slots)) && s.slots[i].in == in {
				old = s.slots[i]
				s.slots[i].in = nil
			}
			if in.Op == mDbg {
				if old.kind == slotBound && in.Sub == dbgNone {
					d.DbgDropped++
				}
				continue
			}
			instrs++
			if old.kind == slotInstr && old.line != in.Line {
				if in.Line == 0 {
					d.LinesZeroed++
				} else {
					d.LinesChanged++
				}
			}
		}
	}
	for _, old := range s.slots {
		switch {
		case old.in == nil:
		case old.kind == slotInstr && old.line > 0:
			d.LinesZeroed++
		case old.kind == slotBound:
			d.DbgDropped++
		}
	}
	d.InstrDelta = int64(instrs - s.instrs)
	return d
}

// displacedBlocks counts blocks whose predecessor in emission order
// changed — each displacement is a line-table discontinuity the
// stepping experience pays for (block placement's debug cost).
func displacedBlocks(before []*MBlock, mf *MFunc) int64 {
	prev := map[*MBlock]*MBlock{}
	for i := 1; i < len(before); i++ {
		prev[before[i]] = before[i-1]
	}
	var n int64
	for i := 1; i < len(mf.Blocks); i++ {
		if prev[mf.Blocks[i]] != mf.Blocks[i-1] {
			n++
		}
	}
	return n
}

// runStage executes one optional backend stage under the ledger when
// telemetry is enabled; with the sink nil it calls the stage directly.
// snap is the Compile's reusable snapshot.
func runStage(snk *telemetry.Sink, opts *Options, snap *mirSnap, stage string, mf *MFunc, fn func()) {
	if snk == nil {
		fn()
		return
	}
	snap.take(mf)
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Nanoseconds()
	d := snap.diff(mf)
	if stage == "layout" {
		d.LinesChanged += displacedBlocks(snap.order, mf)
	}
	d.Runs, d.WallNS = 1, wall
	snk.AddDamage(opts.toggleName(stage), mf.Name, d)
}

// shrinkWrapDamage records the location cost of a prologue moved off
// the entry block: home-slot locations cannot materialize on the paths
// that return before it, ending each slot variable's whole-function
// range early.
func shrinkWrapDamage(snk *telemetry.Sink, opts *Options, mf *MFunc, wall time.Duration) {
	if snk == nil {
		return
	}
	d := telemetry.Damage{Runs: 1, WallNS: wall.Nanoseconds()}
	if mf.prologBlock != nil && len(mf.Blocks) > 0 && mf.prologBlock != mf.Blocks[0] {
		seen := map[int]bool{}
		for _, sym := range mf.SlotVars {
			if sym != nil && !seen[sym.ID] {
				seen[sym.ID] = true
				d.RangesEnded++
			}
		}
	}
	snk.AddDamage(opts.toggleName("shrink-wrap"), mf.Name, d)
}
