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
// each other's work; and each cell runs under the installed resilience
// executor, so a panicking or stalling cell quarantines instead of
// killing the server.
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

// liveSubset filters programs whose reference measurement the analysis
// quarantined; their products are not computable at this level.
func liveSubset(progs []*tuner.Program, quarantined []string) []*tuner.Program {
	if len(quarantined) == 0 {
		return progs
	}
	dead := make(map[string]bool, len(quarantined))
	for _, n := range quarantined {
		dead[n] = true
	}
	var live []*tuner.Program
	for _, p := range progs {
		if !dead[p.Name] {
			live = append(live, p)
		}
	}
	return live
}

// meanProduct averages the hybrid product metric over the programs.
// A quarantined measurement inside the mean returns a quarantine error
// (the caller decides whether that voids the whole point).
func meanProduct(progs []*tuner.Program, cfg pipeline.Config) (float64, error) {
	if len(progs) == 0 {
		return 0, fmt.Errorf("no live programs to measure")
	}
	sum := 0.0
	for _, p := range progs {
		m, err := p.Product(cfg)
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum / float64(len(progs)), nil
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
	dead := map[string]bool{}
	for _, n := range la.QuarantinedPrograms {
		dead[n] = true
	}
	// sums[c] totals the live subjects' products under cfgs[c].
	sums := make([]float64, len(cfgs))
	live := 0
	for _, p := range progs {
		res.Subjects = append(res.Subjects, p.Name)
		if !dead[p.Name] {
			row, err := products(p, cfgs)
			switch {
			case resilience.IsQuarantined(err):
				dead[p.Name] = true
			case err != nil:
				return nil, nil, err
			default:
				for c, m := range row {
					sums[c] += m
				}
				live++
			}
		}
		if dead[p.Name] {
			res.QuarantinedSubjects = append(res.QuarantinedSubjects, p.Name)
		}
	}
	if live == 0 {
		return nil, nil, fmt.Errorf("no live programs to measure")
	}
	ref := sums[0] / float64(live)
	res.Reference = api.TunedConfig{Name: level, Product: ref}
	for c, cfg := range cfgs[1:] {
		avg := sums[c+1] / float64(live)
		res.Configs = append(res.Configs, api.TunedConfig{
			Name:     cfg.Name(),
			Disabled: api.SortedNames(cfg.Disabled),
			Product:  avg,
			DeltaPct: api.DeltaPct(avg, ref),
		})
	}
	return res, la, nil
}

// products measures p's product under each configuration.
func products(p *tuner.Program, cfgs []pipeline.Config) ([]float64, error) {
	row := make([]float64, len(cfgs))
	for c, cfg := range cfgs {
		m, err := p.Product(cfg)
		if err != nil {
			return nil, err
		}
		row[c] = m
	}
	return row, nil
}

// cycles measures one (program, config) timing run on the cycle-exact
// VM, as an ephemeral resilience cell so a panicking build quarantines
// instead of unwinding through the server.
func (sv *Service) cycles(p *tuner.Program, cfg pipeline.Config) (int64, error) {
	key := fmt.Sprintf("serve.cycles|%s|%s", p.CellKey(cfg.Name()), cfg.Name())
	return resilience.RunEphemeral(resilience.Active(), context.Background(), key,
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
// membership marked.
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
	live := liveSubset(progs, la.QuarantinedPrograms)

	base := make([]int64, len(live))
	baseCfg := pipeline.MustConfig(profile, "O0")
	for i, p := range live {
		c, err := sv.cycles(p, baseCfg)
		if err != nil {
			return nil, err
		}
		if c <= 0 {
			c = 1
		}
		base[i] = c
	}

	var cfgs []pipeline.Config
	for _, l := range pipeline.Levels(profile) {
		cfgs = append(cfgs, pipeline.MustConfig(profile, l))
	}
	cfgs = append(cfgs, la.Configs(req.Dy)...)

	var pts []tuner.Point
	for _, cfg := range cfgs {
		pt, err := sv.paretoPoint(live, base, cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return api.ParetoResultFrom(req.Profile, req.Level, pts), nil
}

// paretoPoint measures one configuration on both axes. A quarantined
// measurement anywhere marks the whole point as a gap rather than
// plotting coordinates with a silently-shifted denominator.
func (sv *Service) paretoPoint(live []*tuner.Program, base []int64, cfg pipeline.Config) (tuner.Point, error) {
	label := cfg.Name()
	debug, err := meanProduct(live, cfg)
	if resilience.IsQuarantined(err) {
		return tuner.Point{Label: label, Quarantined: true}, nil
	}
	if err != nil {
		return tuner.Point{}, err
	}
	var ratios []float64
	for i, p := range live {
		c, err := sv.cycles(p, cfg)
		if resilience.IsQuarantined(err) {
			return tuner.Point{Label: label, Quarantined: true}, nil
		}
		if err != nil {
			return tuner.Point{}, err
		}
		if c <= 0 {
			c = 1
		}
		ratios = append(ratios, float64(base[i])/float64(c))
	}
	return tuner.Point{Label: label, Debug: debug, Speedup: metrics.GeoMean(ratios)}, nil
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
