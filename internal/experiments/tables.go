package experiments

import (
	"fmt"
	"io"

	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/suite"
	"debugtuner/internal/testsuite"
)

// Table1 compares the four measurement methods on synthetic programs
// (paper Table I): availability of variables, line coverage, and the
// product, per compiler profile and level, aggregated by geometric mean.
// The (program × level) cells are one suite.Evaluate set, so each is
// measured once; every row and the gcc-O1 spread read its live programs
// in program order, and a program with a quarantined cell is named and
// left out of all of them. With no live program every figure is a QUAR
// gap.
func (r *Runner) Table1(w io.Writer) error {
	progs, err := r.synthPrograms(r.Opts.SynthCount)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table I — methods on %d synthetic programs (geomean)\n", len(progs))
	fmt.Fprintf(w, "%-6s %-4s | %8s %10s %8s %8s | %8s %10s %8s | %8s %10s %8s %8s\n",
		"comp", "opt", "av.stat", "av.statdbg", "av.dyn", "av.hyb",
		"lc.stat", "lc.statdbg", "lc.dyn", "pr.stat", "pr.statdbg", "pr.dyn", "pr.hyb")
	hr(w, 132)

	names := make([]string, len(progs))
	for i, sp := range progs {
		names[i] = synthName(sp.seed)
	}
	cfgs := levelsUnderTest()
	set, err := suite.Evaluate(names, cfgs, func(s int, cfg pipeline.Config) (methodScores, error) {
		return r.synthScores(progs[s], cfg)
	})
	if err != nil {
		return err
	}
	type agg struct {
		avS, avSD, avD, avH, lcS, lcSD, lcD, prS, prSD, prD, prH []float64
		avP, prP                                                 []float64
	}
	// mean renders a column's geometric mean over the live programs.
	mean := func(vals []float64) string {
		if len(vals) == 0 {
			return "QUAR"
		}
		return fmt.Sprintf("%.4f", geo(vals))
	}
	var provenRows []string
	var gccO1 []float64
	for c, cfg := range cfgs {
		var a agg
		for s := range progs {
			if !set.Live(s) {
				continue
			}
			ms := set.Cells[s][c].Value
			a.avS = append(a.avS, ms.Static.Avail)
			a.avSD = append(a.avSD, ms.StaticDbg.Avail)
			a.avD = append(a.avD, ms.Dynamic.Avail)
			a.avH = append(a.avH, ms.Hybrid.Avail)
			a.lcS = append(a.lcS, ms.Static.LineCov)
			a.lcSD = append(a.lcSD, ms.StaticDbg.LineCov)
			a.lcD = append(a.lcD, ms.Dynamic.LineCov)
			a.prS = append(a.prS, ms.Static.Product)
			a.prSD = append(a.prSD, ms.StaticDbg.Product)
			a.prD = append(a.prD, ms.Dynamic.Product)
			a.prH = append(a.prH, ms.Hybrid.Product)
			a.avP = append(a.avP, ms.StaticProven.Avail)
			a.prP = append(a.prP, ms.StaticProven.Product)
		}
		if cfg.Profile == pipeline.GCC && cfg.Level == "O1" {
			gccO1 = a.prH
		}
		fmt.Fprintf(w, "%-6s %-4s | %8s %10s %8s %8s | %8s %10s %8s | %8s %10s %8s %8s\n",
			cfg.Profile, cfg.Level,
			mean(a.avS), mean(a.avSD), mean(a.avD), mean(a.avH),
			mean(a.lcS), mean(a.lcSD), mean(a.lcD),
			mean(a.prS), mean(a.prSD), mean(a.prD), mean(a.prH))
		provenRows = append(provenRows, fmt.Sprintf(
			"%-6s %-4s | %8s %9s | %8s %9s",
			cfg.Profile, cfg.Level,
			mean(a.avS), mean(a.avP), mean(a.prS), mean(a.prP)))
	}
	// Dataflow-proven static claims: the numerator keeps only locations
	// the owner analysis guarantees materialize, so plain-static minus
	// proven bounds the wrong-value over-count without running anything.
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Static vs dataflow-proven static (numerator restricted to must-materialize claims)")
	fmt.Fprintf(w, "%-6s %-4s | %8s %9s | %8s %9s\n",
		"comp", "opt", "av.stat", "av.proven", "pr.stat", "pr.proven")
	hr(w, 54)
	for _, row := range provenRows {
		fmt.Fprintln(w, row)
	}
	// Geometric standard deviation of the hybrid product at gcc O1, the
	// paper's per-program variability check.
	sd := "QUAR"
	if len(gccO1) > 0 {
		sd = fmt.Sprintf("%.3f", metrics.GeoStdDev(gccO1))
	}
	fmt.Fprintf(w, "geometric std dev of hybrid product at gcc-O1: %s\n", sd)
	leftOut(w, "row", set.Quarantined)
	return nil
}

// Table2 reports the hybrid metrics on libpng (paper Table II).
func (r *Runner) Table2(w io.Writer) error {
	s, err := LoadSubject(r, "libpng")
	if err != nil {
		return err
	}
	cfgs := levelsUnderTest()
	set, err := suite.Evaluate([]string{s.Name}, cfgs, func(_ int, cfg pipeline.Config) (metrics.Scores, error) {
		return s.Scores(cfg)
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table II — debug information quality metrics on libpng")
	fmt.Fprintf(w, "%-6s %-4s | %14s %13s %18s\n",
		"comp", "opt", "avail. of vars", "line coverage", "product of metrics")
	hr(w, 64)
	for c, cfg := range cfgs {
		if sc := set.Cells[0][c]; sc.Quarantined {
			fmt.Fprintf(w, "%-6s %-4s | %14s %13s %18s\n", cfg.Profile, cfg.Level, "QUAR", "QUAR", "QUAR")
		} else {
			fmt.Fprintf(w, "%-6s %-4s | %14.4f %13.4f %18.4f\n",
				cfg.Profile, cfg.Level, sc.Value.Avail, sc.Value.LineCov, sc.Value.Product)
		}
	}
	return nil
}

// LoadSubject fetches one loaded suite member from the runner's cache.
func LoadSubject(r *Runner, name string) (*testsuite.Subject, error) {
	subjects, err := r.Suite()
	if err != nil {
		return nil, err
	}
	for _, s := range subjects {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown subject %q", name)
}

// Table3 reports the test-suite statistics (paper Table III).
func (r *Runner) Table3(w io.Writer) error {
	subjects, err := r.Suite()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table III — statistics on programs and inputs for the test suite")
	fmt.Fprintf(w, "%-10s | %10s %9s | %9s %8s %8s\n",
		"program", "avg inputs", "% reduc", "steppable", "stepped", "% debug")
	hr(w, 66)
	var sumIn, sumRed, sumStep, sumStepped, sumCov float64
	for _, s := range subjects {
		st, err := s.ComputeStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s | %10.0f %9.2f | %9d %8d %8.2f\n",
			st.Name, st.AvgInputs, st.ReductionPct,
			st.SteppableLines, st.SteppedLines, st.DebugCoveragePct)
		sumIn += st.AvgInputs
		sumRed += st.ReductionPct
		sumStep += float64(st.SteppableLines)
		sumStepped += float64(st.SteppedLines)
		sumCov += st.DebugCoveragePct
	}
	n := float64(len(subjects))
	hr(w, 66)
	fmt.Fprintf(w, "%-10s | %10.0f %9.2f | %9.0f %8.0f %8.2f\n",
		"average", sumIn/n, sumRed/n, sumStep/n, sumStepped/n, sumCov/n)
	return nil
}

// Table4 reports the product metric per program and level with the
// gcc-vs-clang deltas (paper Table IV). The seven levels are one set,
// so the average row covers the same subjects in every column.
func (r *Runner) Table4(w io.Writer) error {
	cfgs := levelsUnderTest()
	set, err := r.productSet(cfgs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table IV — debug information availability on the test suite")
	fmt.Fprintf(w, "%-10s | %5s %5s %5s %5s | %5s %5s %5s | %7s %7s %7s\n",
		"program", "g.Og", "g.O1", "g.O2", "g.O3", "c.O1", "c.O2", "c.O3",
		"Δ%O1", "Δ%O2", "Δ%O3")
	hr(w, 92)
	val := func(c suite.Cell[float64]) string {
		if c.Quarantined {
			return fmt.Sprintf(" %5s", "QUAR")
		}
		return fmt.Sprintf(" %5.2f", c.Value)
	}
	delta := func(g, c suite.Cell[float64]) string {
		if g.Quarantined || c.Quarantined {
			return fmt.Sprintf(" %7s", "QUAR")
		}
		return fmt.Sprintf(" %7.2f", 100*(g.Value-c.Value)/c.Value)
	}
	for s, name := range set.Names {
		row := set.Cells[s]
		line := fmt.Sprintf("%-10s |", name)
		for c := range cfgs {
			if c == 4 {
				line += " |"
			}
			line += val(row[c])
		}
		line += " |"
		for c := 1; c <= 3; c++ {
			line += delta(row[c], row[c+3])
		}
		fmt.Fprintln(w, line)
	}
	hr(w, 92)
	line := fmt.Sprintf("%-10s |", "average")
	for c := range cfgs {
		if c == 4 {
			line += " |"
		}
		m, ok := suite.Mean(set, c)
		line += val(suite.Cell[float64]{Value: m, Quarantined: !ok})
	}
	fmt.Fprintln(w, line+" |")
	leftOut(w, "average", set.Quarantined)
	return nil
}

// Table7 reports per-level counts of passes with positive, neutral, and
// negative impact (paper Table VII).
func (r *Runner) Table7(w io.Writer) error {
	fmt.Fprintln(w, "Table VII — tested passes per level (positive, neutral, negative)")
	fmt.Fprintf(w, "%-6s | %-22s\n", "comp", "levels")
	hr(w, 60)
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		fmt.Fprintf(w, "%-6s |", p)
		for _, l := range pipeline.Levels(p) {
			la, err := r.Analysis(p, l)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %s: %d (%d,%d,%d)", l, len(la.Ranking),
				la.Positive, la.Neutral, la.Negative)
		}
		fmt.Fprintln(w)
	}
	return nil
}
