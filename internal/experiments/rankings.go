package experiments

import (
	"fmt"
	"io"

	"debugtuner/internal/api"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/suite"
	"debugtuner/internal/tuner"
)

// Table5 prints the top-10 critical passes per gcc level (paper Table V);
// Table6 the clang equivalent (paper Table VI). Back-end passes carry the
// paper's '*' annotation.
func (r *Runner) Table5(w io.Writer) error { return r.topPasses(w, pipeline.GCC, "Table V") }

// Table6 prints the clang ranking.
func (r *Runner) Table6(w io.Writer) error { return r.topPasses(w, pipeline.Clang, "Table VI") }

func (r *Runner) topPasses(w io.Writer, p pipeline.Profile, title string) error {
	fmt.Fprintf(w, "%s — top 10 critical optimization passes in %s (%% improvement)\n", title, p)
	var columns [][]tuner.RankedPass
	levels := pipeline.Levels(p)
	headers := make([]string, len(levels))
	for li, l := range levels {
		la, err := r.Analysis(p, l)
		if err != nil {
			return err
		}
		headers[li] = l
		if q := la.Quarantined(); q > 0 {
			// The gap is explicit: rank aggregation already excluded these
			// cells, the header says how many are missing.
			headers[li] = fmt.Sprintf("%s [QUARANTINED(%d)]", l, q)
		}
		top := la.Ranking
		if len(top) > 10 {
			top = top[:10]
		}
		columns = append(columns, top)
	}
	fmt.Fprintf(w, "%-3s", "#")
	for _, h := range headers {
		fmt.Fprintf(w, " | %-32s", h)
	}
	fmt.Fprintln(w)
	hr(w, 4+36*len(levels))
	for i := 0; i < 10; i++ {
		fmt.Fprintf(w, "%-3d", i+1)
		for _, col := range columns {
			if i < len(col) {
				name := col[i].Display
				if col[i].Backend {
					name += " *"
				}
				fmt.Fprintf(w, " | %-25s %6.2f", name, col[i].GeoIncrementPct)
			} else {
				fmt.Fprintf(w, " | %-32s", "")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figConfigs lists a profile's Fig. 2 configurations: each plain level
// followed by its Ox-dy family.
func (r *Runner) figConfigs(p pipeline.Profile) ([]pipeline.Config, error) {
	var cfgs []pipeline.Config
	for _, l := range pipeline.Levels(p) {
		la, err := r.Analysis(p, l)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, pipeline.MustConfig(p, l))
		cfgs = append(cfgs, la.Configs(r.Opts.Dy)...)
	}
	return cfgs, nil
}

// points measures a profile's Fig. 2 configurations (figConfigs) on
// both axes: the suite-mean product metric and the SPEC-mean speedup
// over O0. Each axis is one evaluated set, so every point averages the
// same subjects and the same benchmarks. A point is a gap when either
// axis has no live member. It also returns the members left out, test
// subjects first.
func (r *Runner) points(p pipeline.Profile) ([]tuner.Point, []string, error) {
	cfgs, err := r.figConfigs(p)
	if err != nil {
		return nil, nil, err
	}
	debug, err := r.productSet(cfgs)
	if err != nil {
		return nil, nil, err
	}
	speed, err := r.speedupSet(cfgs)
	if err != nil {
		return nil, nil, err
	}
	pts := make([]tuner.Point, len(cfgs))
	for c, cfg := range cfgs {
		dbg, okD := suite.Mean(debug, c)
		spd, okS := suite.Mean(speed, c)
		pts[c] = tuner.Point{Label: cfg.Name(), Debug: dbg, Speedup: spd, Quarantined: !okD || !okS}
	}
	return pts, append(debug.Quarantined, speed.Quarantined...), nil
}

// Fig2 prints the debuggability/speedup scatter and its Pareto front for
// both profiles (paper Figure 2, with Tables XIII/XIV values). The table
// is rendered from the same api.ParetoResult struct the tunerd server
// serves, so figure and service response cannot drift.
func (r *Runner) Fig2(w io.Writer) error {
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		pts, quar, err := r.points(p)
		if err != nil {
			return err
		}
		res := api.ParetoResultFrom(string(p), "", pts)
		res.QuarantinedSubjects = quar
		api.RenderPareto(w, fmt.Sprintf(
			"Figure 2 (%s) — product metric vs speedup over O0; * = Pareto-optimal", p), res)
	}
	return nil
}

// Table8 prints the relative debuggability improvement and speedup
// reduction of every Ox-dy configuration over its reference level
// (paper Table VIII), from the Fig. 2 points.
func (r *Runner) Table8(w io.Writer) error {
	fmt.Fprintln(w, "Table VIII — Ox-dy vs Ox: Δ debug availability (%) and Δ speedup (%)")
	fmt.Fprintf(w, "%-6s %-6s", "comp", "config")
	fmt.Fprintf(w, " | %22s | %22s\n", "Δ debug per level", "Δ speedup per level")
	hr(w, 100)
	stride := 1 + len(r.Opts.Dy) // figConfigs' entries per level
	profiles := []pipeline.Profile{pipeline.GCC, pipeline.Clang}
	quar := make([][]string, len(profiles))
	for pi, p := range profiles {
		pts, q, err := r.points(p)
		if err != nil {
			return err
		}
		quar[pi] = q
		for yi, y := range r.Opts.Dy {
			fmt.Fprintf(w, "%-6s Ox-d%-2d |", p, y)
			var dbgCells, spdCells string
			for li, l := range pipeline.Levels(p) {
				ref, pt := pts[li*stride], pts[li*stride+1+yi]
				if ref.Quarantined || pt.Quarantined {
					dbgCells += fmt.Sprintf(" %s:%6s", l, "QUAR")
					spdCells += fmt.Sprintf(" %s:%6s", l, "QUAR")
					continue
				}
				dbgCells += fmt.Sprintf(" %s:%+6.2f", l, 100*(pt.Debug-ref.Debug)/ref.Debug)
				spdCells += fmt.Sprintf(" %s:%+6.2f", l, 100*(pt.Speedup-ref.Speedup)/ref.Speedup)
			}
			fmt.Fprintf(w, " debug:%s | speedup:%s\n", dbgCells, spdCells)
		}
	}
	for pi, p := range profiles {
		leftOut(w, string(p)+" row", quar[pi])
	}
	return nil
}

// Table9 prints per-program products for gcc Ox-dy (paper Table IX);
// Table10 the clang version (paper Table X).
func (r *Runner) Table9(w io.Writer) error { return r.perProgramDy(w, pipeline.GCC, "Table IX") }

// Table10 is the clang per-program table.
func (r *Runner) Table10(w io.Writer) error { return r.perProgramDy(w, pipeline.Clang, "Table X") }

// perProgramDy evaluates the whole table, every Ox-dy block and level,
// as one set, so every average row covers the same subjects.
func (r *Runner) perProgramDy(w io.Writer, p pipeline.Profile, title string) error {
	levels := pipeline.Levels(p)
	var cfgs []pipeline.Config // block y, level l at y*len(levels)+l
	for _, y := range r.Opts.Dy {
		for _, l := range levels {
			la, err := r.Analysis(p, l)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, la.Configs([]int{y})[0])
		}
	}
	set, err := r.productSet(cfgs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s — per-program product metric for %s Ox-dy configurations\n", title, p)
	for yi, y := range r.Opts.Dy {
		fmt.Fprintf(w, "-- Ox-d%d --\n%-10s |", y, "program")
		for _, l := range levels {
			fmt.Fprintf(w, " %6s", l)
		}
		fmt.Fprintln(w)
		block := yi * len(levels)
		for s, name := range set.Names {
			fmt.Fprintf(w, "%-10s |", name)
			for li := range levels {
				if c := set.Cells[s][block+li]; c.Quarantined {
					fmt.Fprintf(w, " %6s", "QUAR")
				} else {
					fmt.Fprintf(w, " %6.4f", c.Value)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-10s |", "average")
		for li := range levels {
			if m, ok := suite.Mean(set, block+li); ok {
				fmt.Fprintf(w, " %6.4f", m)
			} else {
				fmt.Fprintf(w, " %6s", "QUAR")
			}
		}
		fmt.Fprintln(w)
	}
	leftOut(w, "average", set.Quarantined)
	return nil
}

// Table11 prints per-benchmark speedups over O0 for the standard and
// Ox-dy configurations (paper Table XI); Table12 derives the percentage
// change against the reference level (paper Table XII).
func (r *Runner) Table11(w io.Writer) error {
	fmt.Fprintln(w, "Table XI — SPEC speedups over O0 (standard and Ox-dy)")
	return r.specTable(w, false)
}

// Table12 prints the relative variant.
func (r *Runner) Table12(w io.Writer) error {
	fmt.Fprintln(w, "Table XII — Ox-dy percentage change vs reference level")
	return r.specTable(w, true)
}

// specTable prints one row per (benchmark, profile, level): the level's
// speedup and its Ox-dy family's. It averages nothing, so a quarantined
// cell is a QUAR gap and its neighbours still print.
func (r *Runner) specTable(w io.Writer, relative bool) error {
	var cfgs []pipeline.Config
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		pc, err := r.figConfigs(p)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, pc...)
	}
	set, err := r.speedupSet(cfgs)
	if err != nil {
		return err
	}
	for b, bench := range set.Names {
		fmt.Fprintf(w, "%s:\n", bench)
		row := set.Cells[b]
		for c := 0; c < len(cfgs); c += 1 + len(r.Opts.Dy) {
			base := row[c]
			if base.Quarantined {
				fmt.Fprintf(w, "  %-5s %-3s std=%6s", cfgs[c].Profile, cfgs[c].Level, "QUAR")
			} else {
				fmt.Fprintf(w, "  %-5s %-3s std=%5.2fx", cfgs[c].Profile, cfgs[c].Level, base.Value)
			}
			for yi, y := range r.Opts.Dy {
				s := row[c+1+yi]
				switch {
				case s.Quarantined || (relative && base.Quarantined):
					// A relative cell needs both measurements.
					fmt.Fprintf(w, "  d%d=%6s", y, "QUAR")
				case relative:
					fmt.Fprintf(w, "  d%d=%+6.2f%%", y, 100*(s.Value-base.Value)/base.Value)
				default:
					fmt.Fprintf(w, "  d%d=%5.2fx", y, s.Value)
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
