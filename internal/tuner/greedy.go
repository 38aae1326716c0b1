package tuner

import (
	"debugtuner/internal/pipeline"
	"debugtuner/internal/suite"
)

// Greedy subset search — the paper's future-work direction (§VI):
// instead of disabling the top-y ranked passes wholesale, grow the
// disabled set one pass at a time, keeping a candidate only if it
// improves the suite-average product metric. This explores interactions
// the rank-prefix configurations cannot see (a pass may only help once
// another is already disabled) while staying linear in the number of
// toggles.

// GreedyResult records one accepted step of the search.
type GreedyResult struct {
	Pass    string
	Product float64
	// Quarantined names the subjects left out of the step's means.
	Quarantined []string
}

// GreedySelect starts from the reference level and greedily disables
// passes from the ranking (inliner excluded, as in the paper's
// configuration construction) while the suite-average product improves
// by at least minGain. Each step is one suite.Evaluate over the current
// configuration and every candidate, so all the means it compares cover
// the same subjects; a step whose subjects are all quarantined ends the
// search. It returns the accepted steps and the final configuration.
func (la *LevelAnalysis) GreedySelect(progs []*Program, maxPasses int, minGain float64) ([]GreedyResult, pipeline.Config, error) {
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.Name
	}
	product := func(s int, cfg pipeline.Config) (float64, error) { return progs[s].Product(cfg) }

	chosen := map[string]bool{}
	mkCfg := func(extra string) pipeline.Config {
		opts := []pipeline.Option{pipeline.DisableSet(chosen)}
		if extra != "" {
			opts = append(opts, pipeline.Disable(extra))
		}
		return pipeline.MustConfig(la.Profile, la.Level, opts...)
	}
	cfg := mkCfg("")
	var steps []GreedyResult
	for len(steps) < maxPasses {
		cfgs := []pipeline.Config{cfg}
		var cands []string
		for _, rp := range la.Ranking {
			if rp.Name == "inline" || chosen[rp.Name] {
				continue
			}
			cands = append(cands, rp.Name)
			cfgs = append(cfgs, mkCfg(rp.Name))
		}
		set, err := suite.Evaluate(names, cfgs, product)
		if err != nil {
			return nil, cfg, err
		}
		best, ok := suite.Mean(set, 0)
		if !ok {
			break
		}
		var bestPass string
		bestScore := best
		for c, pass := range cands {
			score, _ := suite.Mean(set, c+1)
			if score > bestScore+minGain {
				bestScore = score
				bestPass = pass
			}
		}
		if bestPass == "" {
			break
		}
		chosen[bestPass] = true
		cfg = mkCfg("")
		steps = append(steps, GreedyResult{Pass: bestPass, Product: bestScore, Quarantined: set.Quarantined})
	}
	return steps, cfg, nil
}
