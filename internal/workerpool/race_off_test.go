//go:build !race

package workerpool

// raceEnabled reports whether the tests run under the race detector,
// which slows the two sides of a wall-clock ratio unequally.
const raceEnabled = false
