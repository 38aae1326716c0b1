package tuner

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
)

// PassEffect is one (pass, program) measurement from the build matrix.
type PassEffect struct {
	// Increment is the relative product-metric change from disabling
	// the pass: (M_disabled - M_ref) / M_ref (§III.B).
	Increment float64
	// NoEffect marks builds whose .text was identical to the reference
	// level (the pass changed nothing; the trace stage was skipped).
	NoEffect bool
	// Quarantined marks cells the resilience layer gave up on. They are
	// excluded from rank aggregation entirely (see rank), not treated as
	// zero-effect.
	Quarantined bool
}

// RankedPass is a row of the final cross-program ranking.
type RankedPass struct {
	Name    string
	Display string
	Backend bool
	// AvgRank averages the pass's per-program rank positions; the final
	// ranking sorts by it ascending to avoid outlier bias.
	AvgRank float64
	// GeoIncrementPct is the geometric mean across programs of
	// (1 + increment), minus one, in percent — the paper's "% improvement"
	// column.
	GeoIncrementPct float64
	// Effects keeps the raw per-program data for the appendix tables.
	Effects map[string]PassEffect
}

// LevelAnalysis is the per-level output of DebugTuner's first component.
type LevelAnalysis struct {
	Profile pipeline.Profile
	Level   string
	// RefProduct is each program's product metric at the unmodified
	// level.
	RefProduct map[string]float64
	// Ranking is the cross-program pass ranking, best first.
	Ranking []RankedPass
	// Positive/Neutral/Negative count passes by average effect
	// (Table VII).
	Positive, Neutral, Negative int
	// QuarantinedPrograms lists programs whose reference measurement was
	// quarantined; they contribute to no ranking cell at this level.
	QuarantinedPrograms []string
	// QuarantinedCells counts quarantined (program, pass) matrix cells
	// among the surviving programs.
	QuarantinedCells int
}

// Quarantined reports whether any cell of this level's matrix (reference
// or toggle) was quarantined — the table renderers annotate the level
// header when so.
func (la *LevelAnalysis) Quarantined() int {
	return len(la.QuarantinedPrograms) + la.QuarantinedCells
}

// effectCache persists the (program, pass-toggle) ranking-matrix cells.
// A cell is a pure function of its cellKey, whose config fingerprint
// carries profile, level and the disabled pass, because builds are
// deterministic, the VM is cycle-exact, and the reference measurement
// the increment is computed against is itself a function of the same
// program, inputs, budget and level. The matrix dominates cold-run
// time, so storing cells is what makes warm reruns fast. Quarantined
// cells surface as errors and are never stored.
var effectCache = evalcache.Cache[cellKey, PassEffect]{Namespace: "tuner.effect"}

// AnalyzeLevel runs DebugTuner stage 1+2 for one profile/level: build the
// reference, rebuild once per disabled pass (pruning .text-identical
// builds), measure, and rank. Each rebuild comes from the program's fork
// set (pipeline.Forks): it resumes at the pass's first run that changed
// the reference, stops when it rejoins the reference, and is skipped
// when the pass changed nothing the reference build ran.
//
// The (program × pass) build+trace matrix is embarrassingly parallel and
// fans out over the workerpool in two waves — per-program references
// first (their hashes gate the pruning), then the full matrix. Results
// are aggregated in input order, so the ranking is identical to the
// serial loop's regardless of worker count.
func AnalyzeLevel(progs []*Program, profile pipeline.Profile, level string) (*LevelAnalysis, error) {
	la := &LevelAnalysis{
		Profile: profile, Level: level,
		RefProduct: map[string]float64{},
	}
	passNames := pipeline.EnabledPasses(profile, level)
	ctx := context.Background()

	// Wave 1: reference build+trace per program. Measure routes through
	// the content-addressed cache, so the plain-level configurations the
	// table generators also visit are built only once per process. A
	// quarantined reference removes the whole program from this level —
	// without M_ref none of its increments are computable — rather than
	// failing the analysis.
	//
	// A reference that misses the cache is compiled from the program's
	// fork set, whose middle end is the one the matrix cells resume
	// from, so each (program, level) runs it once. A fork set that fails
	// to build fails only the matrix cells: the reference is then built
	// from scratch.
	refCfg := pipeline.MustConfig(profile, level)
	forks := make([]programForks, len(progs))
	for i := range forks {
		forks[i].left.Store(int32(len(passNames)))
	}
	type refCell struct {
		M           Measurement
		Quarantined bool
	}
	refs, err := workerpool.Map(ctx, progs, func(_ context.Context, i int, p *Program) (refCell, error) {
		m, err := p.measureBuilt(refCfg, func() (*vm.Binary, error) {
			if fs, err := forks[i].get(p.IR0, refCfg, passNames); err == nil {
				return fs.Reference(), nil
			}
			return p.Build(refCfg), nil
		})
		if resilience.IsQuarantined(err) {
			return refCell{Quarantined: true}, nil
		}
		return refCell{M: m}, err
	})
	if err != nil {
		return nil, err
	}
	var live []*Program
	var liveForks []*programForks
	var liveRefs []Measurement
	for i, p := range progs {
		if refs[i].Quarantined {
			la.QuarantinedPrograms = append(la.QuarantinedPrograms, p.Name)
			forks[i].fs = nil
			continue
		}
		la.RefProduct[p.Name] = refs[i].M.Scores.Product
		live = append(live, p)
		liveForks = append(liveForks, &forks[i])
		liveRefs = append(liveRefs, refs[i].M)
	}

	// Wave 2: the (program × pass) matrix over the surviving programs.
	// Each cell is a resilience cell of its own; a quarantined one is an
	// explicit gap the rank aggregation excludes.
	type matrixJob struct{ pi, xi int }
	jobs := make([]matrixJob, 0, len(live)*len(passNames))
	for pi := range live {
		for xi := range passNames {
			jobs = append(jobs, matrixJob{pi, xi})
		}
	}
	cells, err := workerpool.Map(ctx, jobs, func(ctx context.Context, _ int, j matrixJob) (PassEffect, error) {
		p := live[j.pi]
		pf := liveForks[j.pi]
		defer pf.cellDone()
		cfg := pipeline.MustConfig(profile, level,
			pipeline.Disable(passNames[j.xi]))
		key := p.cellKey(cfg.Fingerprint())
		eff, err := effectCache.Do(key, func() (PassEffect, error) {
			return resilience.Run(ctx, key.String(),
				func(context.Context) (PassEffect, error) {
					fs, err := pf.get(p.IR0, refCfg, passNames)
					if err != nil {
						return PassEffect{}, fmt.Errorf("%s: %w", p.Name, err)
					}
					bin := fs.Build(passNames[j.xi])
					// Stage-1 optimization: identical .text means the pass had
					// no effect on this program; skip trace extraction (§III.A).
					// A nil binary is the reference's own.
					if bin == nil || bin.TextHash() == liveRefs[j.pi].TextHash {
						return PassEffect{NoEffect: true}, nil
					}
					base, err := p.Baseline()
					if err != nil {
						return PassEffect{}, err
					}
					tr, err := p.Trace(bin)
					if err != nil {
						return PassEffect{}, err
					}
					m := metrics.Hybrid(tr, base, p.DR).Product
					refM := liveRefs[j.pi].Scores.Product
					inc := 0.0
					if refM > 0 {
						inc = (m - refM) / refM
					}
					return PassEffect{Increment: inc}, nil
				})
		})
		if resilience.IsQuarantined(err) {
			return PassEffect{Quarantined: true}, nil
		}
		return eff, err
	})
	if err != nil {
		return nil, err
	}
	effects := map[string]map[string]PassEffect{}
	for _, n := range passNames {
		effects[n] = map[string]PassEffect{}
	}
	for k, j := range jobs {
		effects[passNames[j.xi]][live[j.pi].Name] = cells[k]
		if cells[k].Quarantined {
			la.QuarantinedCells++
		}
	}

	la.Ranking = rank(passNames, live, effects, profile)
	for _, rp := range la.Ranking {
		if math.IsInf(rp.AvgRank, 1) {
			continue // fully quarantined: no measured effect to classify
		}
		g := rp.GeoIncrementPct
		switch {
		case g > 1e-9:
			la.Positive++
		case g < -1e-9:
			la.Negative++
		default:
			la.Neutral++
		}
	}
	return la, nil
}

// newForks builds a program's fork set; tests replace it to fail.
var newForks = pipeline.NewForks

// programForks is one program's fork set within AnalyzeLevel: built by
// the program's reference measurement or, when that hits its cache, by
// the first matrix cell that misses the effect cache; shared by the
// other cells, and dropped after the last one, so warm runs build none.
type programForks struct {
	mu   sync.Mutex
	fs   *pipeline.Forks
	err  error
	left atomic.Int32 // cells not yet finished
}

// get returns the fork set, building it on first use. A panic in the
// build becomes the error every caller gets, so each cell's resilience
// wrapper handles it as that cell's failure.
func (pf *programForks) get(ir0 *ir.Program, ref pipeline.Config, toggles []string) (*pipeline.Forks, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.fs == nil && pf.err == nil {
		pf.fs, pf.err = buildForks(ir0, ref, toggles)
	}
	return pf.fs, pf.err
}

func buildForks(ir0 *ir.Program, ref pipeline.Config, toggles []string) (fs *pipeline.Forks, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fork set: panic: %v", r)
		}
	}()
	return newForks(ir0, ref, toggles), nil
}

// cellDone records a finished cell and drops the fork set after the
// program's last one.
func (pf *programForks) cellDone() {
	if pf.left.Add(-1) == 0 {
		pf.mu.Lock()
		pf.fs = nil
		pf.mu.Unlock()
	}
}

// rank computes per-program rankings and aggregates by average rank.
//
// Per program (§III.B): passes with positive increment are ranked by
// increment, descending; passes with no measurable effect share the next
// rank; passes with negative impact rank below them.
//
// Quarantined cells are excluded, not defaulted: a missing measurement
// contributes neither a rank position in its program's ordering nor a
// factor to the geometric mean, and each pass's average divides by the
// number of programs that actually measured it. A pass with no surviving
// measurement gets AvgRank +Inf and sorts last (alphabetically among
// such passes), so the gap is visible instead of silently flattering or
// penalizing the pass.
func rank(passNames []string, progs []*Program, effects map[string]map[string]PassEffect, profile pipeline.Profile) []RankedPass {
	rankSum := map[string]float64{}
	rankN := map[string]int{}
	for _, p := range progs {
		type pe struct {
			name string
			eff  PassEffect
		}
		var pos, neg []pe
		var zero []string
		for _, n := range passNames {
			e := effects[n][p.Name]
			switch {
			case e.Quarantined:
				// Excluded: no rank position for this (pass, program).
			case !e.NoEffect && e.Increment > 1e-12:
				pos = append(pos, pe{n, e})
			case !e.NoEffect && e.Increment < -1e-12:
				neg = append(neg, pe{n, e})
			default:
				zero = append(zero, n)
			}
		}
		sort.SliceStable(pos, func(i, j int) bool {
			if pos[i].eff.Increment != pos[j].eff.Increment {
				return pos[i].eff.Increment > pos[j].eff.Increment
			}
			return pos[i].name < pos[j].name
		})
		sort.SliceStable(neg, func(i, j int) bool {
			if neg[i].eff.Increment != neg[j].eff.Increment {
				return neg[i].eff.Increment > neg[j].eff.Increment
			}
			return neg[i].name < neg[j].name
		})
		r := 1
		for _, x := range pos {
			rankSum[x.name] += float64(r)
			rankN[x.name]++
			r++
		}
		for _, n := range zero {
			rankSum[n] += float64(r) // identical low rank for all
			rankN[n]++
		}
		if len(zero) > 0 {
			r++
		}
		for _, x := range neg {
			rankSum[x.name] += float64(r)
			rankN[x.name]++
			r++
		}
	}

	out := make([]RankedPass, 0, len(passNames))
	for _, n := range passNames {
		rp := RankedPass{
			Name:    n,
			Display: pipeline.DisplayName(profile, n),
			Backend: pipeline.IsBackend(n),
			AvgRank: math.Inf(1),
			Effects: effects[n],
		}
		if rankN[n] > 0 {
			rp.AvgRank = rankSum[n] / float64(rankN[n])
		}
		var factors []float64
		for _, p := range progs {
			if e := effects[n][p.Name]; !e.Quarantined {
				factors = append(factors, 1+e.Increment)
			}
		}
		if len(factors) > 0 {
			rp.GeoIncrementPct = (metrics.GeoMean(factors) - 1) * 100
		}
		out = append(out, rp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AvgRank != out[j].AvgRank {
			// math.Inf compares normally here, so fully-quarantined
			// passes (AvgRank +Inf) sort after every measured pass; the
			// stable sort keeps passNames order among them.
			return out[i].AvgRank < out[j].AvgRank
		}
		return out[i].GeoIncrementPct > out[j].GeoIncrementPct
	})
	return out
}

// TopPasses returns the top-k toggle names of the ranking, excluding the
// general inliner when excludeInline is set — the paper's special
// treatment: the master inline switch is too costly to disable outright,
// so configurations use the finer-grained inlining toggles instead
// (§V.B).
func (la *LevelAnalysis) TopPasses(k int, excludeInline bool) []string {
	var out []string
	for _, rp := range la.Ranking {
		if excludeInline && rp.Name == "inline" {
			continue
		}
		out = append(out, rp.Name)
		if len(out) == k {
			break
		}
	}
	return out
}

// Configs builds the Ox-dy configuration family from the ranking:
// for each y, the top y ranked passes (with the inliner excluded per the
// paper) are disabled.
func (la *LevelAnalysis) Configs(ys []int) []pipeline.Config {
	var out []pipeline.Config
	for _, y := range ys {
		out = append(out, pipeline.MustConfig(la.Profile, la.Level,
			pipeline.Disable(la.TopPasses(y, true)...)))
	}
	return out
}
