// Package stats holds the order statistics the benchmark reports:
// medians, latency percentiles that refuse to speak past their sample
// count, and the quartile spread the acceptance rule is written in.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// MinBeyond is how many samples must lie above a reported percentile.
// With fewer, the percentile is one or two unlucky samples, not a tail.
const MinBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value of xs (mean of the middle two for an even
// count). It panics on an empty slice: every caller measures at least once.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats.Median of no samples")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile is the nearest-rank p-th percentile of xs (0 < p < 100).
// A failed operation enters as +Inf and so sorts above every success.
// It returns an error when fewer than MinBeyond samples lie above the
// rank, the rule that caps a few hundred requests at p90.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < MinBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d",
			p, n, beyond, MinBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// Quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// definition the benchmark's spread rule is stated in. It needs at
// least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("spread of samples with a zero median")
	}
	return (q3 - q1) / q2, nil
}
