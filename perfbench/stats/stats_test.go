package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	got, err := Percentile(ramp(100), 90)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	// 99 samples put the p90 rank at 90, leaving only 9 beyond it.
	if _, err := Percentile(ramp(99), 90); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond it")
	}
	if _, err := Percentile(ramp(300), 99); err == nil {
		t.Error("p99 of 300 samples accepted with 3 beyond it")
	}
	if got, err := Percentile(ramp(20), 50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := ramp(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // 11 failed requests
	}
	got, err := Percentile(xs, 90)
	if err != nil || !math.IsInf(got, 1) {
		t.Errorf("p90 with 11%% failures = %v, %v; want +Inf", got, err)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v %v", q1, q2, q3, err)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
	// clamped ranks extrapolate past the samples.
	q1, q2, q3, err = Quartiles([]float64{2, 1})
	if err != nil || q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v %v", q1, q2, q3, err)
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample accepted")
	}
}

func TestSpread(t *testing.T) {
	s, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", s, err)
	}
}
