package codegen

import (
	"debugtuner/internal/ir"
	"debugtuner/internal/telemetry"
)

// The map-based MIR ledger the stamped snapshot replaced, kept as its
// test oracle.

// mirOracleSnap is the oracle's per-function machine-IR debug snapshot.
type mirOracleSnap struct {
	instrs int
	lines  map[*MInstr]int
	bound  map[*MInstr]bool
	order  []*MBlock
}

func snapshotMIR(mf *MFunc) *mirOracleSnap {
	s := &mirOracleSnap{
		lines: map[*MInstr]int{},
		bound: map[*MInstr]bool{},
		order: append([]*MBlock(nil), mf.Blocks...),
	}
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if in.Op == mDbg {
				s.bound[in] = in.Sub != dbgNone
				continue
			}
			s.instrs++
			s.lines[in] = in.Line
		}
	}
	return s
}

// diffMIR compares mf against its snapshot. Deleted instructions that
// carried a line count as zeroed (their rows vanish from the line
// table — cross-jumping's cost); deleted bound markers count as
// dropped.
func diffMIR(before *mirOracleSnap, mf *MFunc) telemetry.Damage {
	var d telemetry.Damage
	instrs := 0
	present := map[*MInstr]bool{}
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			present[in] = true
			if in.Op == mDbg {
				if before.bound[in] && in.Sub == dbgNone {
					d.DbgDropped++
				}
				continue
			}
			instrs++
			if old, ok := before.lines[in]; ok && old != in.Line {
				if in.Line == 0 {
					d.LinesZeroed++
				} else {
					d.LinesChanged++
				}
			}
		}
	}
	for in, line := range before.lines {
		if !present[in] && line > 0 {
			d.LinesZeroed++
		}
	}
	for in, wasBound := range before.bound {
		if wasBound && !present[in] {
			d.DbgDropped++
		}
	}
	d.InstrDelta = int64(instrs - before.instrs)
	return d
}

// OracleLedger runs Compile's per-function stage sequence on prog with
// every optional stage diffed by the oracle, and returns the ledger it
// fills, wall times zero. A sequence that drifts from Compile's shows
// as a ledger that differs from the one Compile records.
func OracleLedger(prog *ir.Program, opts Options) map[telemetry.DamageKey]telemetry.Damage {
	snk := telemetry.NewSink()
	stage := func(name string, mf *MFunc, fn func()) {
		before := snapshotMIR(mf)
		fn()
		d := diffMIR(before, mf)
		if name == "layout" {
			d.LinesChanged += displacedBlocks(before.order, mf)
		}
		d.Runs = 1
		snk.AddDamage(opts.toggleName(name), mf.Name, d)
	}
	fidx := map[string]int64{}
	for i, f := range prog.Funcs {
		fidx[f.Name] = int64(i)
	}
	for _, f := range prog.Funcs {
		mf := lowerFunc(prog, f, &opts, fidx)
		if opts.MachineSink {
			stage("machine-sink", mf, func() { machineSink(mf) })
		}
		if opts.Schedule {
			stage("schedule", mf, func() { schedule(mf) })
		}
		rpoSort(mf)
		regalloc(mf, &opts)
		if opts.Layout {
			stage("layout", mf, func() { layout(mf) })
		}
		if opts.ShrinkWrap {
			shrinkWrap(mf)
			shrinkWrapDamage(snk, &opts, mf, 0)
		} else {
			mf.prologBlock = mf.Blocks[0]
		}
		if opts.CrossJump {
			stage("crossjump", mf, func() { crossJump(mf) })
		}
	}
	return snk.Ledger()
}
