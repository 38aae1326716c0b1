// Package suite is the one evaluator behind every suite average the
// paper reports: the mean hybrid product of a configuration over the
// thirteen test-suite subjects (§IV), and the mean speedup over O0 over
// the SPEC stand-ins. Evaluate measures a (subject × config) set on the
// worker pool and applies the one quarantine policy: a subject with any
// quarantined cell in the set is named and left out of every mean of
// that set, so all of the set's means cover the same subjects.
//
// The package knows neither suite. Callers name the subjects and pass
// the measurement (tuner.Program.Product, specsuite.OverO0, a service
// timing run), so tuner, serve and experiments share it without an
// import cycle.
package suite

import (
	"context"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/workerpool"
)

// Cell is one (subject, config) measurement.
type Cell[V any] struct {
	Value V
	// Quarantined marks a measurement the resilience layer gave up on;
	// Value is then the zero V.
	Quarantined bool
}

// Set is one evaluated (subject × config) matrix.
type Set[V any] struct {
	// Names are the subjects, in suite order.
	Names []string
	// Cells[s][c] is subject s measured under config c.
	Cells [][]Cell[V]
	// Quarantined names the subjects with a quarantined cell, in suite
	// order. They are left out of every mean of the set.
	Quarantined []string

	dead []bool
}

// Evaluate measures every (subject, config) cell with measure, where s
// indexes names, fanning the cells out on the worker pool. A quarantined
// cell is kept as a gap; any other error is returned (the first by cell
// order, as workerpool.Map reports it). The set is identical at any
// worker count.
func Evaluate[V any](names []string, cfgs []pipeline.Config, measure func(s int, cfg pipeline.Config) (V, error)) (*Set[V], error) {
	n := len(names)
	cells, err := workerpool.Map(context.Background(), make([]struct{}, n*len(cfgs)),
		func(_ context.Context, i int, _ struct{}) (Cell[V], error) {
			v, err := measure(i%n, cfgs[i/n])
			if resilience.IsQuarantined(err) {
				return Cell[V]{Quarantined: true}, nil
			}
			return Cell[V]{Value: v}, err
		})
	if err != nil {
		return nil, err
	}
	st := &Set[V]{Names: names, Cells: make([][]Cell[V], n), dead: make([]bool, n)}
	for s, name := range names {
		st.Cells[s] = make([]Cell[V], len(cfgs))
		for c := range cfgs {
			st.Cells[s][c] = cells[c*n+s]
			st.dead[s] = st.dead[s] || st.Cells[s][c].Quarantined
		}
		if st.dead[s] {
			st.Quarantined = append(st.Quarantined, name)
		}
	}
	return st, nil
}

// Live reports whether subject s enters the set's means.
func (st *Set[V]) Live(s int) bool { return !st.dead[s] }

// Mean averages config c's cells over the live subjects, summed in suite
// order. ok is false when no subject is live: the set is a gap, which
// renderers print as QUAR.
func Mean(st *Set[float64], c int) (mean float64, ok bool) {
	sum, n := 0.0, 0
	for s, row := range st.Cells {
		if st.Live(s) {
			sum += row[c].Value
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
