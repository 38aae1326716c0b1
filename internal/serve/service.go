// Package serve is the DebugTuner service: the compute layer that turns
// api requests into api results using the tuner/difftest/staticdbg
// engines, and the HTTP layer (server.go) that runs it as a long-lived
// sharded daemon — cmd/tunerd.
//
// The design inverts the batch harness: instead of one process running
// one matrix and exiting, the evalcache (memory + disk), the worker
// pool, and the resilience executor become shared serving
// infrastructure. Each request's (program × pass) matrix fans out over
// the process-wide worker pool; every measurement cell is content-
// addressed, so requests overlapping in (source, config) space reuse
// each other's work; and each cell runs once under the process's
// resilience executor, so a panicking or failing cell quarantines
// instead of killing the server.
package serve

import (
	"context"
	"fmt"
	"sort"

	"debugtuner/internal/api"
	"debugtuner/internal/difftest"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/staticdbg"
	"debugtuner/internal/suite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/vm"
)

// DefaultBudget is the per-run VM step budget of service measurements.
const DefaultBudget = 1 << 26

// Service computes API results. It is stateless apart from the global
// caches the underlying engines already share; one Service serves all
// requests concurrently.
type Service struct {
	// Budget is the per-run VM step budget (0 = DefaultBudget).
	Budget int64
}

func (sv *Service) budget() int64 {
	if sv.Budget > 0 {
		return sv.Budget
	}
	return DefaultBudget
}

// loadPrograms front-ends every unit. A front-end failure is a typed
// compile_error naming the unit. Tuning traces and times each unit's
// entry function, so a unit without one is an invalid_argument.
func loadPrograms(units []api.Unit) ([]*tuner.Program, *api.Error) {
	progs := make([]*tuner.Program, 0, len(units))
	for _, u := range units {
		p, err := tuner.LoadProgram(u.Name, []byte(u.Source), nil)
		if err != nil {
			return nil, &api.Error{Code: api.CodeCompileError, Msg: err.Error()}
		}
		if p.IR0.Func(p.Entry) == nil {
			return nil, &api.Error{Code: api.CodeInvalidArgument,
				Msg: fmt.Sprintf("unit %q has no function %q", u.Name, p.Entry)}
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// names lists the programs' names, in request order.
func names(progs []*tuner.Program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.Name
	}
	return out
}

// productSet evaluates the programs' hybrid product metric under cfgs as
// one suite set.
func productSet(progs []*tuner.Program, cfgs []pipeline.Config) (*suite.Set[float64], error) {
	return suite.Evaluate(names(progs), cfgs, func(s int, cfg pipeline.Config) (float64, error) {
		return progs[s].Product(cfg)
	})
}

// Tune runs the DebugTuner analysis for the request: pass ranking at
// (profile, level) across the submitted units, plus the Ox-dy
// configuration family scored by suite-average product metric.
func (sv *Service) Tune(req *api.TuneRequest) (*api.TuneResult, error) {
	progs, aerr := loadPrograms(req.Units)
	if aerr != nil {
		return nil, aerr
	}
	for _, p := range progs {
		p.Budget = sv.budget()
	}
	res, _, err := TunePrograms(progs, pipeline.Profile(req.Profile), req.Level, req.Dy)
	return res, err
}

// TunePrograms is the one tune computation, behind both /v1/tune and
// cmd/debugtuner: the pass ranking at (profile, level) across progs,
// plus the Ox-dy family of sizes dy scored by mean product. A subject
// whose reference or any Ox-dy measurement was quarantined is left out
// of every mean and named in the result, so all the means cover the
// same subjects. It also returns the analysis the result was built
// from.
func TunePrograms(progs []*tuner.Program, profile pipeline.Profile, level string, dy []int) (*api.TuneResult, *tuner.LevelAnalysis, error) {
	la, err := tuner.AnalyzeLevel(progs, profile, level)
	if err != nil {
		return nil, nil, err
	}
	res := &api.TuneResult{
		Profile:          string(profile),
		Level:            level,
		Positive:         la.Positive,
		Neutral:          la.Neutral,
		Negative:         la.Negative,
		Ranking:          api.RankedPassesFrom(la.Ranking),
		QuarantinedCells: la.QuarantinedCells,
	}
	cfgs := append([]pipeline.Config{pipeline.MustConfig(profile, level)}, la.Configs(dy)...)
	set, err := productSet(progs, cfgs)
	if err != nil {
		return nil, nil, err
	}
	res.Subjects = set.Names
	res.QuarantinedSubjects = set.Quarantined
	ref, ok := suite.Mean(set, 0)
	if !ok {
		return nil, nil, fmt.Errorf("no live programs to measure")
	}
	res.Reference = api.TunedConfig{Name: level, Product: ref}
	for c, cfg := range cfgs[1:] {
		avg, _ := suite.Mean(set, c+1)
		res.Configs = append(res.Configs, api.TunedConfig{
			Name:     cfg.Name(),
			Disabled: api.SortedNames(cfg.Disabled),
			Product:  avg,
			DeltaPct: api.DeltaPct(avg, ref),
		})
	}
	return res, la, nil
}

// cycles measures one (program, config) timing run on the cycle-exact
// VM, as a resilience cell so a panicking build quarantines instead of
// unwinding through the server.
func (sv *Service) cycles(p *tuner.Program, cfg pipeline.Config) (int64, error) {
	key := fmt.Sprintf("serve.cycles|%s|%s", p.CellKey(cfg.Name()), cfg.Name())
	return resilience.Run(context.Background(), key,
		func(context.Context) (int64, error) {
			bin := pipeline.Build(p.IR0, cfg)
			m := vm.New(bin)
			m.StepBudget = sv.budget()
			if _, err := m.Call(p.Entry); err != nil {
				return 0, err
			}
			return m.Cycles, nil
		})
}

// Pareto evaluates every plain level of the profile plus the request's
// Ox-dy family on both axes — suite-mean product metric against
// suite-geomean speedup over O0 — and returns the scatter with front
// membership marked. Each axis is one suite set: a unit with a
// quarantined cell on an axis is left out of every point on it and
// named in the result, and an axis with no unit left makes every point
// a gap.
func (sv *Service) Pareto(req *api.TuneRequest) (*api.ParetoResult, error) {
	progs, aerr := loadPrograms(req.Units)
	if aerr != nil {
		return nil, aerr
	}
	for _, p := range progs {
		p.Budget = sv.budget()
	}
	profile := pipeline.Profile(req.Profile)
	la, err := tuner.AnalyzeLevel(progs, profile, req.Level)
	if err != nil {
		return nil, err
	}
	var cfgs []pipeline.Config
	for _, l := range pipeline.Levels(profile) {
		cfgs = append(cfgs, pipeline.MustConfig(profile, l))
	}
	cfgs = append(cfgs, la.Configs(req.Dy)...)
	debug, err := productSet(progs, cfgs)
	if err != nil {
		return nil, err
	}
	// The speed axis times O0 in the same set as the configurations, so a
	// unit whose O0 timing is quarantined drops out of every ratio.
	timed := append([]pipeline.Config{pipeline.MustConfig(profile, "O0")}, cfgs...)
	cycles, err := suite.Evaluate(names(progs), timed, func(s int, cfg pipeline.Config) (int64, error) {
		c, err := sv.cycles(progs[s], cfg)
		return max(c, 1), err
	})
	if err != nil {
		return nil, err
	}

	pts := make([]tuner.Point, len(cfgs))
	for c, cfg := range cfgs {
		dbg, ok := suite.Mean(debug, c)
		var ratios []float64
		for s, row := range cycles.Cells {
			if cycles.Live(s) {
				ratios = append(ratios, float64(row[0].Value)/float64(row[c+1].Value))
			}
		}
		pts[c] = tuner.Point{Label: cfg.Name(), Debug: dbg, Speedup: metrics.GeoMean(ratios),
			Quarantined: !ok || len(ratios) == 0}
	}
	res := api.ParetoResultFrom(req.Profile, req.Level, pts)
	for s, name := range debug.Names {
		if !debug.Live(s) || !cycles.Live(s) {
			res.QuarantinedSubjects = append(res.QuarantinedSubjects, name)
		}
	}
	return res, nil
}

// Report runs the debuggability report: the difftest behavior/invariant
// oracle over the requested configuration matrix, plus the staticdbg
// verify-each analysis of every (unit, config) cell.
func (sv *Service) Report(req *api.ReportRequest) (*api.DebugReport, error) {
	cfgs, err := difftest.ParseMatrix(req.Configs)
	if err != nil {
		return nil, &api.Error{Code: api.CodeInvalidArgument,
			Msg: fmt.Sprintf("configs: %v", err)}
	}
	rep := &api.DebugReport{}
	for _, cfg := range cfgs {
		rep.Configs = append(rep.Configs, cfg.Name())
	}
	oracle := difftest.NewOracle(cfgs)
	oracle.Budget = sv.budget()

	for _, u := range req.Units {
		rep.Subjects = append(rep.Subjects, u.Name)
		subj := difftest.SourceSubject(u.Name, []byte(u.Source))
		findings, err := oracle.CheckSubject(subj)
		if err != nil {
			return nil, &api.Error{Code: api.CodeCompileError,
				Msg: fmt.Sprintf("%s: %v", u.Name, err)}
		}
		for _, f := range api.FindingsFrom(findings) {
			rep.Findings = append(rep.Findings, f)
			switch f.Kind {
			case difftest.KindBehavior, difftest.KindReference:
				rep.Mismatches++
			case difftest.KindInvariant:
				rep.Violations++
			case difftest.KindQuarantine:
				rep.Quarantined = append(rep.Quarantined, api.QuarantineRecord{
					Key:  f.Subject + "|" + f.Config,
					Kind: difftest.KindQuarantine, Attempts: 1, Err: f.Detail,
				})
			}
		}

		info, err := pipeline.Frontend(u.Name+".mc", []byte(u.Source))
		if err != nil {
			return nil, &api.Error{Code: api.CodeCompileError,
				Msg: fmt.Sprintf("%s: %v", u.Name, err)}
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			return nil, &api.Error{Code: api.CodeCompileError,
				Msg: fmt.Sprintf("%s: %v", u.Name, err)}
		}
		for _, cfg := range cfgs {
			vrep := pipeline.BuildVerified(ir0, cfg, false)
			viols := staticdbg.Strings(vrep.Violations())
			verrs := vrep.VerifyErrs()
			rep.Static = append(rep.Static, api.StaticStat{
				Subject:    u.Name,
				Config:     cfg.Name(),
				BaseLines:  vrep.Total.Lines,
				BaseVars:   vrep.Total.Vars,
				FinalLines: vrep.Final.Lines,
				FinalVars:  vrep.Final.Vars,
				Violations: len(viols) + len(verrs),
			})
			for _, v := range viols {
				rep.Findings = append(rep.Findings, api.Finding{
					Subject: u.Name, Config: cfg.Name(), Kind: "static", Detail: v,
				})
				rep.Violations++
			}
			for _, e := range verrs {
				rep.Findings = append(rep.Findings, api.Finding{
					Subject: u.Name, Config: cfg.Name(), Kind: "static",
					Detail: "ir.Verify: " + e,
				})
				rep.Violations++
			}
		}
	}
	sort.SliceStable(rep.Quarantined, func(i, j int) bool {
		return rep.Quarantined[i].Key < rep.Quarantined[j].Key
	})
	return rep, nil
}
