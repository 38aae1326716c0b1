// Package metrics implements the four debug-information quality
// measurement methods compared in the paper's Table I:
//
//   - dynamic (Assaiante et al.): optimized debugger trace vs.
//     unoptimized-trace baseline. Underestimates availability because the
//     -O0 baseline includes DWARF's whole-scope variable locations,
//     visible before the variable is even assigned.
//   - static (Stinnett & Kell): debug-section contents vs. source-level
//     definition ranges, no execution. Overestimates availability by
//     counting locations that never materialize at runtime, and its line
//     baseline includes dead code.
//   - static-dbg: the static method with its baseline restricted to
//     lines actually stepped at -O0, for fair comparison.
//   - hybrid (this paper): the dynamic method with the -O0 baseline
//     clipped by the source definition-range analysis, removing the
//     DWARF inflation while keeping the end-user (runtime) perspective.
//
// All methods report availability of variables, line coverage, and their
// product — the paper's headline quality score.
package metrics

import (
	"math"
	"sort"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/sema"
)

// Scores holds one method's three metrics, each in [0, 1].
type Scores struct {
	Avail   float64
	LineCov float64
	Product float64
}

func mkScores(avail, cov float64) Scores {
	return Scores{Avail: avail, LineCov: cov, Product: avail * cov}
}

// ratio returns num/den with the convention that an empty baseline means
// nothing was lost.
func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// Dynamic computes Assaiante et al.'s metrics from an optimized trace
// and the unoptimized baseline trace.
func Dynamic(opt, base *dbgtrace.Trace) Scores {
	return dynamicScores(opt, base, nil)
}

// Hybrid computes this paper's metrics: like Dynamic, but every per-line
// variable set is intersected with the source definition ranges, so a
// variable the -O0 debugger shows outside its source-level definition
// range no longer inflates the baseline.
func Hybrid(opt, base *dbgtrace.Trace, dr *sema.DefRanges) Scores {
	return dynamicScores(opt, base, dr)
}

func dynamicScores(opt, base *dbgtrace.Trace, dr *sema.DefRanges) Scores {
	common := 0
	availSum, availN := 0.0, 0
	// Iterate in sorted line order: float accumulation in Go map order
	// would make scores differ between runs at ULP level, which is enough
	// to flip tie-breaks in the pass ranking. The evaluation engine
	// promises bit-identical results at any worker count.
	for _, line := range sortedLines(base.Stepped) {
		if !opt.Stepped[line] {
			continue
		}
		common++
		baseVars := clip(base.Avail[line], dr, line)
		if len(baseVars) == 0 {
			continue
		}
		optVars := clip(opt.Avail[line], dr, line)
		hit := 0
		for v := range optVars {
			if baseVars[v] {
				hit++
			}
		}
		availSum += float64(hit) / float64(len(baseVars))
		availN++
	}
	avail := 1.0
	if availN > 0 {
		avail = availSum / float64(availN)
	}
	return mkScores(avail, ratio(common, len(base.Stepped)))
}

// clip intersects an availability set with the variables expected in
// scope and assigned at the line (no-op when dr is nil).
func clip(vars map[int]bool, dr *sema.DefRanges, line int) map[int]bool {
	if dr == nil {
		return vars
	}
	out := map[int]bool{}
	for v := range vars {
		if dr.InRange(v, line) {
			out[v] = true
		}
	}
	return out
}

// Static computes Stinnett & Kell-style metrics purely from the
// optimized binary's debug section and the source analysis.
//
// Per line of the baseline (every source statement line), availability is
// the fraction of expected variables that have a location of any
// materializable kind covering an address attributed to the line.
// Line coverage is the fraction of baseline lines present in the line
// table.
func Static(table *debuginfo.Table, stmtLines map[int]bool, dr *sema.DefRanges) Scores {
	return staticScores(table, stmtLines, dr)
}

// StaticDbg is the static method with the baseline restricted to lines
// stepped in the unoptimized binary, removing dead and unreachable code
// from the denominator.
func StaticDbg(table *debuginfo.Table, baseO0 *dbgtrace.Trace, dr *sema.DefRanges) Scores {
	lines, _ := BaselineLines(DenomSteppedO0, nil, baseO0, dr)
	return staticScores(table, lines, dr)
}

func staticScores(table *debuginfo.Table, baseLines map[int]bool, dr *sema.DefRanges) Scores {
	return staticScoresVis(table, baseLines, dr,
		func(symID int, addrs []uint32) bool {
			return staticVisible(table, symID, addrs)
		})
}

// staticScoresVis is the static measurement loop with the per-line
// claim test abstracted: the plain method accepts any covering claim
// (staticVisible), the proven variant only claims the dataflow
// analysis guarantees materialize (see StaticProven).
func staticScoresVis(table *debuginfo.Table, baseLines map[int]bool,
	dr *sema.DefRanges, visible func(symID int, addrs []uint32) bool) Scores {
	// Addresses attributed to each line.
	lineAddrs := table.BreakAddrs()
	// Precompute addr extents per line run: a variable covers the line
	// if any of the line's row-start addresses falls inside one of its
	// entries. (Row starts are where a debugger would set breakpoints.)
	steppable := table.SteppableLines()

	covered := 0
	availSum, availN := 0.0, 0
	for _, line := range sortedLines(baseLines) {
		if steppable[line] {
			covered++
		} else {
			// Lines the optimizer eliminated are charged to the line
			// coverage metric only; availability is a per-covered-line
			// question (counting them here would fold the coverage loss
			// into availability twice and invert the paper's
			// static-overestimation relation).
			continue
		}
		expected := dr.ExpectedAt(line)
		if len(expected) == 0 {
			continue
		}
		hit := 0
		for _, symID := range expected {
			if visible(symID, lineAddrs[line]) {
				hit++
			}
		}
		availSum += float64(hit) / float64(len(expected))
		availN++
	}
	avail := 1.0
	if availN > 0 {
		avail = availSum / float64(availN)
	}
	return mkScores(avail, ratio(covered, len(baseLines)))
}

// staticVisible reports whether the debug section claims a location for
// the symbol at any of the line's addresses. This is where the static
// method over-counts: the claim is not checked against runtime state.
func staticVisible(table *debuginfo.Table, symID int, addrs []uint32) bool {
	if len(addrs) == 0 {
		return false
	}
	for i := range table.Vars {
		v := &table.Vars[i]
		if int(v.SymID) != symID {
			continue
		}
		for _, a := range addrs {
			if e := v.LocAt(a); e != nil && e.Kind != debuginfo.LocNone {
				return true
			}
		}
	}
	return false
}

// sortedLines returns a set's members in ascending order, for
// deterministic float accumulation.
func sortedLines(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// GeoMean returns the geometric mean of strictly meaningful values;
// zeros are clamped to eps, matching the paper's aggregation of
// per-program scores.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	const eps = 1e-6
	sum := 0.0
	for _, v := range vals {
		if v < eps {
			v = eps
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// GeoStdDev returns the geometric standard deviation (the paper reports
// it to argue per-program variability is low on synthetic corpora).
func GeoStdDev(vals []float64) float64 {
	if len(vals) < 2 {
		return 1
	}
	const eps = 1e-6
	mu := math.Log(GeoMean(vals))
	sum := 0.0
	for _, v := range vals {
		if v < eps {
			v = eps
		}
		d := math.Log(v) - mu
		sum += d * d
	}
	return math.Exp(math.Sqrt(sum / float64(len(vals)-1)))
}
