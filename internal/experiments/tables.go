package experiments

import (
	"context"
	"fmt"
	"io"

	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/suite"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/workerpool"
)

// Table1 compares the four measurement methods on synthetic programs
// (paper Table I): availability of variables, line coverage, and the
// product, per compiler profile and level, aggregated by geometric mean.
func (r *Runner) Table1(w io.Writer) error {
	progs := loadSynth(r.Opts.SynthCount)
	fmt.Fprintf(w, "Table I — methods on %d synthetic programs (geomean)\n", len(progs))
	fmt.Fprintf(w, "%-6s %-4s | %8s %10s %8s %8s | %8s %10s %8s | %8s %10s %8s %8s\n",
		"comp", "opt", "av.stat", "av.statdbg", "av.dyn", "av.hyb",
		"lc.stat", "lc.statdbg", "lc.dyn", "pr.stat", "pr.statdbg", "pr.dyn", "pr.hyb")
	hr(w, 132)

	// Per configuration, fan the per-program measurements out over the
	// worker pool; the geomean aggregation consumes them in program
	// order, identical to the serial loop.
	measureAll := func(cfg pipeline.Config) ([]methodScores, error) {
		return workerpool.Map(context.Background(), progs,
			func(_ context.Context, _ int, sp *synthProgram) (methodScores, error) {
				base, err := sp.baseline()
				if err != nil {
					return methodScores{}, err
				}
				return sp.measure(cfg, base)
			})
	}

	type agg struct {
		avS, avSD, avD, avH, lcS, lcSD, lcD, prS, prSD, prD, prH []float64
		avP, prP                                                 []float64
	}
	var provenRows []string
	for _, cfg := range levelsUnderTest() {
		var a agg
		all, err := measureAll(cfg)
		if err != nil {
			return err
		}
		for _, ms := range all {
			a.avS = append(a.avS, ms.static.Avail)
			a.avSD = append(a.avSD, ms.staticDbg.Avail)
			a.avD = append(a.avD, ms.dynamic.Avail)
			a.avH = append(a.avH, ms.hybrid.Avail)
			a.lcS = append(a.lcS, ms.static.LineCov)
			a.lcSD = append(a.lcSD, ms.staticDbg.LineCov)
			a.lcD = append(a.lcD, ms.dynamic.LineCov)
			a.prS = append(a.prS, ms.static.Product)
			a.prSD = append(a.prSD, ms.staticDbg.Product)
			a.prD = append(a.prD, ms.dynamic.Product)
			a.prH = append(a.prH, ms.hybrid.Product)
			a.avP = append(a.avP, ms.staticProven.Avail)
			a.prP = append(a.prP, ms.staticProven.Product)
		}
		fmt.Fprintf(w, "%-6s %-4s | %8.4f %10.4f %8.4f %8.4f | %8.4f %10.4f %8.4f | %8.4f %10.4f %8.4f %8.4f\n",
			cfg.Profile, cfg.Level,
			geo(a.avS), geo(a.avSD), geo(a.avD), geo(a.avH),
			geo(a.lcS), geo(a.lcSD), geo(a.lcD),
			geo(a.prS), geo(a.prSD), geo(a.prD), geo(a.prH))
		provenRows = append(provenRows, fmt.Sprintf(
			"%-6s %-4s | %8.4f %9.4f | %8.4f %9.4f",
			cfg.Profile, cfg.Level,
			geo(a.avS), geo(a.avP), geo(a.prS), geo(a.prP)))
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
	all, err := measureAll(pipeline.MustConfig(pipeline.GCC, "O1"))
	if err != nil {
		return err
	}
	var prods []float64
	for _, ms := range all {
		prods = append(prods, ms.hybrid.Product)
	}
	fmt.Fprintf(w, "geometric std dev of hybrid product at gcc-O1: %.3f\n",
		metrics.GeoStdDev(prods))
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
