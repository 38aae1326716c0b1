package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/workerpool"
)

// DebugifyOptions scopes the debugify experiment.
type DebugifyOptions struct {
	// Subjects are test-suite member names; nil means the whole suite.
	Subjects []string
	// Profiles restricts the matrix; nil means both profiles.
	Profiles []pipeline.Profile
	// Levels restricts the matrix (e.g. just "O2"); nil means every
	// level of each profile.
	Levels []string
	// Verify runs the verify-each analyzer (the experiment's point).
	// With it false the same matrix is built plainly — the baseline
	// bench_eval.sh measures verify-each overhead against.
	Verify bool
	// Interrupt, when non-nil and cancelled, stops the matrix before the
	// next cell: completed cells are already in the store, so a rerun on
	// the same store reads them back and only the remainder is rebuilt.
	Interrupt context.Context
}

// DefaultDebugifyOptions is the full matrix with verification on.
func DefaultDebugifyOptions() DebugifyOptions {
	return DebugifyOptions{Verify: true}
}

// DebugifyRow is one pass's aggregate synthetic-metadata damage over
// the matrix — the static preservation scoreboard the telemetry damage
// ledger is cross-checked against.
type DebugifyRow struct {
	Pass    string
	Backend bool
	// AlwaysOn marks steps no configuration can disable (cleanup runs
	// and the base codegen step); they sort after every user toggle.
	AlwaysOn bool
	Runs     int64
	// LinesLost / VarsLost sum each step's destroyed baseline metadata
	// (recoveries by later duplication do not offset earlier losses).
	LinesLost  int64
	VarsLost   int64
	Violations int64
	// InstrDelta is the net code growth across runs; its magnitude is
	// the churn term, mirroring the ledger's score.
	InstrDelta int64
	Score      int64
}

// DebugifyConfigStat is one configuration's aggregate survival.
type DebugifyConfigStat struct {
	Config     string
	Lines      int64
	TotalLines int64
	Vars       int64
	TotalVars  int64
}

// DebugifyReport is the experiment outcome.
type DebugifyReport struct {
	Rows     []DebugifyRow
	Configs  []DebugifyConfigStat
	Findings []string // violations + verify errors, sorted, stable
	Cells    int
	// Quarantined counts cells lost to the resilience layer — gaps, not
	// verdicts; they surface through the quarantine report and exit 3.
	Quarantined int
}

type debugifyCell struct {
	subject string
	srcHash uint64
	ir0     *ir.Program
	cfg     pipeline.Config
}

// debugifyKey declares every input of one stored debugify report. The
// subject's name is not one: the report never mentions it.
type debugifyKey struct {
	Src    uint64 // source hash
	Config string // config fingerprint
	Verify bool
}

type debugifyCellResult struct {
	rep        *pipeline.VerifyReport
	quarantine string // non-empty when the cell was lost
}

// Debugify runs a debugified verified build of every (subject, config)
// cell of the matrix and aggregates per-pass losses. Cells are fanned
// over the worker pool in deterministic order and wrapped in the
// resilience layer: one pass panicking on one subject quarantines that
// cell instead of killing the matrix. Each cell's report, without its
// binary (VerifyReport.Bin is never encoded), is kept in the
// process-wide store.
func Debugify(opts DebugifyOptions) (*DebugifyReport, error) {
	span := telemetry.Begin("experiments", "debugify")
	defer span.End()

	subjects := opts.Subjects
	if len(subjects) == 0 {
		subjects = testsuite.Names
	}
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = []pipeline.Profile{pipeline.GCC, pipeline.Clang}
	}
	levelOK := map[string]bool{}
	for _, l := range opts.Levels {
		levelOK[l] = true
	}

	var cells []debugifyCell
	for _, name := range subjects {
		s, err := testsuite.LoadLite(name)
		if err != nil {
			return nil, err
		}
		h := resilience.HashBytes(s.Src)
		for _, p := range profiles {
			for _, level := range pipeline.Levels(p) {
				if len(levelOK) > 0 && !levelOK[level] {
					continue
				}
				cfg, err := pipeline.NewConfig(p, level)
				if err != nil {
					return nil, err
				}
				cells = append(cells, debugifyCell{
					subject: name, srcHash: h, ir0: s.IR0, cfg: cfg,
				})
			}
		}
	}

	reports := evalcache.Cache[debugifyKey, *pipeline.VerifyReport]{Namespace: "debugify"}
	mctx := context.Background()
	if opts.Interrupt != nil {
		mctx = opts.Interrupt
	}
	results, err := workerpool.Map(mctx, cells,
		func(_ context.Context, _ int, c debugifyCell) (*debugifyCellResult, error) {
			fp, _ := c.cfg.Fingerprint()
			k := debugifyKey{Src: c.srcHash, Config: fp, Verify: opts.Verify}
			rep, err := reports.Do(k, func() (*pipeline.VerifyReport, error) {
				qkey := fmt.Sprintf("debugify|%s#%016x|%s", c.subject, c.srcHash, fp)
				return resilience.Run(context.Background(), qkey,
					func(context.Context) (*pipeline.VerifyReport, error) {
						if !opts.Verify {
							pipeline.Build(c.ir0, c.cfg)
							return &pipeline.VerifyReport{}, nil
						}
						return pipeline.BuildVerified(c.ir0, c.cfg, true), nil
					})
			})
			if resilience.IsQuarantined(err) {
				return &debugifyCellResult{quarantine: err.Error()}, nil
			}
			if err != nil {
				return nil, err
			}
			return &debugifyCellResult{rep: rep}, nil
		})
	if err != nil {
		return nil, err
	}

	rep := &DebugifyReport{Cells: len(cells)}
	byPass := map[string]*DebugifyRow{}
	byConfig := map[string]*DebugifyConfigStat{}
	var configOrder []string
	addFinding := func(cell debugifyCell, where, msg string) {
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("%s %s %s: %s", cell.subject, cell.cfg.Name(), where, msg))
	}
	for i, res := range results {
		if res.quarantine != "" {
			rep.Quarantined++
			continue
		}
		if !opts.Verify {
			continue
		}
		cell := cells[i]
		r := res.rep
		cs := byConfig[cell.cfg.Name()]
		if cs == nil {
			cs = &DebugifyConfigStat{Config: cell.cfg.Name()}
			byConfig[cell.cfg.Name()] = cs
			configOrder = append(configOrder, cell.cfg.Name())
		}
		cs.Lines += int64(r.Final.Lines)
		cs.Vars += int64(r.Final.Vars)
		cs.TotalLines += int64(r.Total.Lines)
		cs.TotalVars += int64(r.Total.Vars)
		// Advisory findings (loc-extendable) are improvement hints, not
		// defects: they neither fail the run nor count in the scoreboard.
		for _, v := range r.InitialViolations {
			if v.Rule.Advisory() {
				continue
			}
			addFinding(cell, "input", v.String())
		}
		for _, st := range r.Steps {
			row := byPass[st.Label]
			if row == nil {
				row = &DebugifyRow{
					Pass:    st.Label,
					Backend: st.Backend || pipeline.IsBackend(st.Label),
					AlwaysOn: strings.HasPrefix(st.Label, "cleanup/") ||
						st.Label == "codegen",
				}
				byPass[st.Label] = row
			}
			row.Runs++
			if st.LinesLost > 0 {
				row.LinesLost += int64(st.LinesLost)
			}
			if st.VarsLost > 0 {
				row.VarsLost += int64(st.VarsLost)
			}
			row.InstrDelta += int64(st.InstrDelta)
			for _, v := range st.NewViolations {
				if v.Rule.Advisory() {
					continue
				}
				row.Violations++
				addFinding(cell, st.Label, v.String())
			}
			if st.VerifyErr != "" {
				addFinding(cell, st.Label, "ir.Verify: "+st.VerifyErr)
			}
		}
	}
	for _, row := range byPass {
		churn := row.InstrDelta
		if churn < 0 {
			churn = -churn
		}
		row.Score = row.LinesLost + row.VarsLost + row.Violations + churn
		rep.Rows = append(rep.Rows, *row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].AlwaysOn != rep.Rows[j].AlwaysOn {
			return !rep.Rows[i].AlwaysOn
		}
		if rep.Rows[i].Score != rep.Rows[j].Score {
			return rep.Rows[i].Score > rep.Rows[j].Score
		}
		return rep.Rows[i].Pass < rep.Rows[j].Pass
	})
	for _, name := range configOrder {
		rep.Configs = append(rep.Configs, *byConfig[name])
	}
	sort.Strings(rep.Findings)
	telemetry.Add("debugify.cells", int64(rep.Cells))
	telemetry.Add("debugify.findings", int64(len(rep.Findings)))
	telemetry.Add("debugify.quarantined", int64(rep.Quarantined))
	return rep, nil
}

// WriteDebugify prints the static preservation scoreboard. Output is
// byte-identical at any worker count; a run with findings is reported
// line by line through the shared violation renderer's order.
func WriteDebugify(w io.Writer, opts DebugifyOptions) (*DebugifyReport, error) {
	rep, err := Debugify(opts)
	if err != nil {
		return nil, err
	}
	if !opts.Verify {
		fmt.Fprintf(w, "debugify: %d cells (verify-each off, plain builds)\n", rep.Cells)
		return rep, nil
	}
	fmt.Fprintf(w, "debugify: %d cells, synthetic metadata survival after full builds\n",
		rep.Cells)
	fmt.Fprintf(w, "%-10s | %8s %8s | %7s %7s\n",
		"config", "lines", "vars", "lines%", "vars%")
	hr(w, 50)
	for _, cs := range rep.Configs {
		fmt.Fprintf(w, "%-10s | %8d %8d | %6.1f%% %6.1f%%\n",
			cs.Config, cs.Lines, cs.Vars,
			pct(cs.Lines, cs.TotalLines), pct(cs.Vars, cs.TotalVars))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Per-pass static preservation scoreboard (losses against the injected baseline)")
	fmt.Fprintf(w, "%-3s %-24s | %5s | %7s %7s %7s | %8s | %8s\n",
		"#", "pass", "runs", "lines-", "vars-", "viol", "Δinstr", "score")
	hr(w, 86)
	rank := 0
	alwaysOnHeader := false
	for _, r := range rep.Rows {
		name := r.Pass
		if r.Backend {
			name += " *"
		}
		pos := "-"
		if r.AlwaysOn {
			if !alwaysOnHeader {
				fmt.Fprintln(w, "-- always-on stages (not user toggles) --")
				alwaysOnHeader = true
			}
		} else {
			rank++
			pos = fmt.Sprint(rank)
		}
		fmt.Fprintf(w, "%-3s %-24s | %5d | %7d %7d %7d | %+8d | %8d\n",
			pos, name, r.Runs, r.LinesLost, r.VarsLost, r.Violations,
			r.InstrDelta, r.Score)
	}
	if rep.Quarantined > 0 {
		fmt.Fprintf(w, "quarantined cells: %d\n", rep.Quarantined)
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	if len(rep.Findings) == 0 {
		fmt.Fprintln(w, "PASS")
	}
	return rep, nil
}

func pct(n, total int64) float64 {
	if total == 0 {
		return 100
	}
	return 100 * float64(n) / float64(total)
}
