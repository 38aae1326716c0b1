package tuner_test

import (
	"testing"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
)

// TestGreedySelectChaosComparesLiveSubjects runs the greedy search under
// chaos (rate 0.2, seed 3) on fresh suite subjects: no other test here
// grows corpora of 16 execs, and testsuite.Load memoizes subjects with
// their measurement caches, which would answer before the chaos layer.
// Quarantined cells must not abort the search. Each step names the
// subjects it left out, its product is the mean over the others, and it
// beat the configuration it extends over those same subjects.
func TestGreedySelectChaosComparesLiveSubjects(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	subjects, err := testsuite.LoadAll(testsuite.CorpusOptions{Execs: 16})
	if err != nil {
		t.Fatal(err)
	}
	progs := testsuite.Programs(subjects)
	la, err := tuner.AnalyzeLevel(progs, pipeline.GCC, "O1")
	if err != nil {
		t.Fatal(err)
	}
	const minGain = 0.0005
	ex := resilience.NewExecutor(resilience.DefaultPolicy())
	ex.Chaos = &resilience.Chaos{Rate: 0.2, Seed: 3}
	ex.Policy.Seed = 3
	prev := resilience.Install(ex)
	steps, _, err := la.GreedySelect(progs, 2, minGain)
	resilience.Install(prev)
	if err != nil {
		t.Fatalf("a quarantined cell aborted the search: %v", err)
	}
	if len(steps) == 0 {
		t.Fatal("the search accepted no step")
	}
	// mean averages cfg's product over the subjects not in dead; their
	// cells all succeeded under chaos, so they come from the cache.
	mean := func(cfg pipeline.Config, dead []string) float64 {
		left := map[string]bool{}
		for _, n := range dead {
			left[n] = true
		}
		sum, n := 0.0, 0
		for _, p := range progs {
			if left[p.Name] {
				continue
			}
			m, err := p.Product(cfg)
			if err != nil {
				t.Fatalf("%s is live but failed: %v", p.Name, err)
			}
			sum += m
			n++
		}
		if n == 0 {
			t.Fatal("a step averaged no subject")
		}
		return sum / float64(n)
	}
	quarantined := false
	var disabled []string
	for _, s := range steps {
		from := pipeline.MustConfig(pipeline.GCC, "O1", pipeline.Disable(disabled...))
		disabled = append(disabled, s.Pass)
		to := pipeline.MustConfig(pipeline.GCC, "O1", pipeline.Disable(disabled...))
		quarantined = quarantined || len(s.Quarantined) > 0
		if got := mean(to, s.Quarantined); got != s.Product {
			t.Errorf("step %s: product %v, want %v over the subjects it kept", s.Pass, s.Product, got)
		}
		if base := mean(from, s.Quarantined); s.Product <= base+minGain {
			t.Errorf("step %s: %v does not beat %v over the same subjects", s.Pass, s.Product, base)
		}
	}
	if !quarantined {
		t.Fatal("no step left a subject out; the test exercises no policy")
	}
}
