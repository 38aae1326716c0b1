package api

import "testing"

// TestDeltaPct: the relative change is guarded against a reference
// product of zero (every variable unavailable at the reference level),
// which would otherwise render Inf or NaN.
func TestDeltaPct(t *testing.T) {
	for _, c := range []struct{ avg, ref, want float64 }{
		{0.75, 0.5, 50},
		{0.25, 0.5, -50},
		{0.5, 0.5, 0},
		{0.4, 0, 0},
		{0, 0, 0},
	} {
		if got := DeltaPct(c.avg, c.ref); got != c.want {
			t.Errorf("DeltaPct(%v, %v) = %v, want %v", c.avg, c.ref, got, c.want)
		}
	}
}
