package staticdbg

import (
	"fmt"

	"debugtuner/internal/dataflow"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/vm"
)

// LocVerdict is the structured result behind a dataflow finding, kept
// separate from Violation so diagnostics can stay address-free (stable
// across the per-pass recompiles verify-each attribution diffs) while
// the soundness cross-check still knows exactly which addresses and
// storage each verdict constrains. DataflowVerdicts exposes them.
type LocVerdict struct {
	FuncIdx int
	SymID   int32
	Entry   debuginfo.LocEntry
	// Stale: no covered reachable address may observe the claimed
	// storage owned by the variable. Otherwise the verdict is the
	// loc-extendable proof at address Entry.End.
	Stale bool
}

// DataflowVerdicts decodes the binary's debug section and returns the
// flow-sensitive analysis's per-entry verdicts. It is the entry point
// of the dynamic soundness cross-check: a debugger trace must never
// materialize a value a Stale verdict constrains, and must always
// materialize an extendable verdict's value at its Entry.End.
func DataflowVerdicts(bin *vm.Binary) []LocVerdict {
	_, vds := decodeDataflow(bin)
	return vds
}

// CheckBinaryDataflow runs only the flow-sensitive rules of CheckBinary
// (loc-stale, loc-extendable, line-unreachable), in the order CheckBinary
// reports them. A binary whose debug section is missing or does not
// decode yields nothing: that is CheckBinary's RuleSection finding.
// Verify-each's mid-chain steps compare only these rules and call this
// instead of the whole CheckBinary.
func CheckBinaryDataflow(bin *vm.Binary) []Violation {
	vs, _ := decodeDataflow(bin)
	return vs
}

// decodeDataflow decodes the debug section and runs the flow-sensitive
// rule set on it; nil results when there is no decodable section.
func decodeDataflow(bin *vm.Binary) ([]Violation, []LocVerdict) {
	if bin.Debug == nil {
		return nil, nil
	}
	table, err := debuginfo.Decode(bin.Debug)
	if err != nil {
		return nil, nil
	}
	return checkBinaryDataflow(bin, table)
}

// checkBinaryDataflow runs the flow-sensitive rule set — loc-stale,
// loc-extendable, line-unreachable — over an already structurally
// validated debug section. Entries that fail the structural rules
// (shape, containment) are skipped here: dataflow on top of malformed
// coordinates would only echo the structural finding as noise.
func checkBinaryDataflow(bin *vm.Binary, table *debuginfo.Table) ([]Violation, []LocVerdict) {
	var out []Violation
	var verdicts []LocVerdict
	facts := map[int]*dataflow.OwnerFacts{}
	factsFor := func(fi int) *dataflow.OwnerFacts {
		if f, ok := facts[fi]; ok {
			return f
		}
		f := dataflow.NewOwnerFacts(bin, fi)
		facts[fi] = f
		return f
	}
	fnOK := func(fi int32) bool {
		if fi < 0 || int(fi) >= len(table.Funcs) || int(fi) >= len(bin.Funcs) {
			return false
		}
		fd := &table.Funcs[fi]
		return fd.Start <= fd.End && int(fd.End) <= len(bin.Code)
	}

	// Location lists: loc-stale and loc-extendable.
	for vi := range table.Vars {
		v := &table.Vars[vi]
		if !fnOK(v.FuncIdx) {
			continue
		}
		fd := &table.Funcs[v.FuncIdx]
		numSlots := bin.Funcs[v.FuncIdx].NumSlots
		of := factsFor(int(v.FuncIdx))
		for _, e := range v.Entries {
			if e.Start >= e.End || e.Start < fd.Start || e.End > fd.End {
				continue
			}
			var st dataflow.Storage
			var kind string
			switch e.Kind {
			case debuginfo.LocReg:
				if e.Operand < 0 || e.Operand >= vm.NumRegs {
					continue
				}
				st, kind = dataflow.RegStorage(int(e.Operand)), "register"
			case debuginfo.LocSpill:
				if e.Operand < 0 || e.Operand >= int64(numSlots) {
					continue
				}
				st, kind = dataflow.SlotStorage(int(e.Operand)), "spill slot"
			default:
				continue
			}

			anyReach, observable := false, false
			for a := int(e.Start); a < int(e.End); a++ {
				if !of.Reachable(a) {
					continue
				}
				anyReach = true
				if of.MayOwn(a, st, v.SymID) || of.PreTagged(a, st, v.SymID) {
					observable = true
					break
				}
			}
			switch {
			case !anyReach:
				out = append(out, Violation{
					Rule: RuleLocStale, Func: fd.Name, Entity: "var " + v.Name,
					Detail: fmt.Sprintf(
						"%s claim covers only statically unreachable code", kind),
				})
				verdicts = append(verdicts, LocVerdict{
					FuncIdx: int(v.FuncIdx), SymID: v.SymID, Entry: e, Stale: true,
				})
			case !observable:
				out = append(out, Violation{
					Rule: RuleLocStale, Func: fd.Name, Entity: "var " + v.Name,
					Detail: fmt.Sprintf(
						"%s claim is stale: a clobbering write of a different owner reaches every covered address", kind),
				})
				verdicts = append(verdicts, LocVerdict{
					FuncIdx: int(v.FuncIdx), SymID: v.SymID, Entry: e, Stale: true,
				})
			default:
				// The claim can materialize; is it extendable past End?
				a := int(e.End)
				if a >= int(fd.End) || !of.Reachable(a) || v.LocAt(e.End) != nil {
					break
				}
				if !of.MustOwn(a, st, v.SymID) {
					break
				}
				if e.Kind == debuginfo.LocSpill && !of.MustPrologueDone(a) {
					break
				}
				out = append(out, Violation{
					Rule: RuleLocExtendable, Func: fd.Name, Entity: "var " + v.Name,
					Detail: fmt.Sprintf(
						"%s claim ends early: the value provably survives past the claimed range end", kind),
				})
				verdicts = append(verdicts, LocVerdict{
					FuncIdx: int(v.FuncIdx), SymID: v.SymID, Entry: e,
				})
			}
		}
	}

	// Line table: attributed rows on statically unreachable code.
	for i := range table.Lines {
		e := &table.Lines[i]
		if e.Line <= 0 {
			continue
		}
		for fi := range table.Funcs {
			fd := &table.Funcs[fi]
			if e.Addr < fd.Start || e.Addr >= fd.End || !fnOK(int32(fi)) {
				continue
			}
			if !factsFor(fi).Reachable(int(e.Addr)) {
				out = append(out, Violation{
					Rule: RuleLineUnreachable, Func: fd.Name,
					Entity: fmt.Sprintf("line %d", e.Line),
					Detail: "is_stmt row attributed to statically unreachable code",
				})
			}
			break
		}
	}
	return out, verdicts
}
