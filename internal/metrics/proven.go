package metrics

import (
	"debugtuner/internal/dataflow"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/sema"
	"debugtuner/internal/vm"
)

// StaticProven is the static measurement with its numerator restricted
// to claims the owner dataflow analysis proves must materialize: where
// Static counts any location entry covering a line address — including
// entries whose register was long since clobbered — StaticProven counts
// a (line, variable) pair only when some covered address carries a
// proven claim:
//
//   - LocConst / LocGlobal: unconditional, the debugger never consults
//     frame state for these;
//   - LocReg: the register is must-owned by the variable entering the
//     address (every path's last ownership write was for it);
//   - LocSlot: the prologue has provably run on every path (the home
//     slot exists and was initialized);
//   - LocSpill: both — the slot is must-owned and the prologue done.
//
// The result is a lower bound on dynamic availability in the same way
// Static is an upper bound: StaticProven <= dynamic-at-those-lines <=
// Static per claim, so the gap between the two static scores bounds the
// wrong-value over-count without running the program.
func StaticProven(bin *vm.Binary, table *debuginfo.Table, stmtLines map[int]bool,
	dr *sema.DefRanges) Scores {
	pc := &provenChecker{bin: bin, table: table}
	return staticScoresVis(table, stmtLines, dr, pc.visible)
}

// provenChecker memoizes one solved OwnerFacts per function across the
// per-line visibility queries of a measurement.
type provenChecker struct {
	bin   *vm.Binary
	table *debuginfo.Table
	facts map[int32]*dataflow.OwnerFacts
}

func (pc *provenChecker) factsFor(fi int32) *dataflow.OwnerFacts {
	if pc.facts == nil {
		pc.facts = map[int32]*dataflow.OwnerFacts{}
	}
	if of, ok := pc.facts[fi]; ok {
		return of
	}
	of := dataflow.NewOwnerFacts(pc.bin, int(fi))
	pc.facts[fi] = of
	return of
}

// visible reports whether some address of the line carries a claim for
// the symbol that provably materializes there.
func (pc *provenChecker) visible(symID int, addrs []uint32) bool {
	if len(addrs) == 0 {
		return false
	}
	for i := range pc.table.Vars {
		v := &pc.table.Vars[i]
		if int(v.SymID) != symID {
			continue
		}
		for _, a := range addrs {
			e := v.LocAt(a)
			if e == nil {
				continue
			}
			switch e.Kind {
			case debuginfo.LocConst, debuginfo.LocGlobal:
				return true
			case debuginfo.LocReg:
				if pc.factsFor(v.FuncIdx).MustOwn(int(a),
					dataflow.RegStorage(int(e.Operand)), v.SymID) {
					return true
				}
			case debuginfo.LocSlot:
				if pc.factsFor(v.FuncIdx).MustPrologueDone(int(a)) {
					return true
				}
			case debuginfo.LocSpill:
				of := pc.factsFor(v.FuncIdx)
				if of.MustOwn(int(a), dataflow.SlotStorage(int(e.Operand)), v.SymID) &&
					of.MustPrologueDone(int(a)) {
					return true
				}
			}
		}
	}
	return false
}
