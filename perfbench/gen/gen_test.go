package gen

import (
	"bytes"
	"encoding/json"
	"testing"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/vm"
)

// tunerdBudget is tunerd's default per-run VM step budget
// (serve.DefaultBudget); a unit must finish far inside it.
const tunerdBudget = 1 << 26

func TestBodiesDeterministic(t *testing.T) {
	a, b := Bodies(Requests(7, 40)), Bodies(Requests(7, 60))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 body %d differs between two calls", i)
		}
	}
	c := Bodies(Requests(8, 40))
	seen := map[string]bool{}
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("seeds 7 and 8 share body %d", i)
		}
		if seen[string(a[i])] {
			t.Errorf("seed 7 repeats body %d", i)
		}
		seen[string(a[i])] = true
	}
}

func TestUnitsFrontEndAndTerminate(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for i, body := range Bodies(Requests(seed, 40)) {
			var rq Request
			if err := json.Unmarshal(body, &rq); err != nil {
				t.Fatal(err)
			}
			u := rq.Units[0]
			info, err := pipeline.Frontend(u.Name+".mc", []byte(u.Source))
			if err != nil {
				t.Fatalf("seed %d request %d: front end: %v\n%s", seed, i, err, u.Source)
			}
			ir0, err := pipeline.BuildIR(info)
			if err != nil {
				t.Fatalf("seed %d request %d: IR: %v", seed, i, err)
			}
			bin := pipeline.Build(ir0, pipeline.MustConfig(pipeline.Profile(rq.Profile), rq.Level))
			m := vm.New(bin)
			m.StepBudget = tunerdBudget
			if _, err := m.Call("main"); err != nil {
				t.Fatalf("seed %d request %d: run: %v", seed, i, err)
			}
			if m.Steps > tunerdBudget/100 {
				t.Errorf("seed %d request %d: %d steps, want under 1%% of the budget", seed, i, m.Steps)
			}
		}
	}
}
