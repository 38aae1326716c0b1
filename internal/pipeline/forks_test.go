package pipeline

import (
	"bytes"
	"testing"

	"debugtuner/internal/vm"
)

// matrixToggles is every single toggle of the per-pass matrix at a
// profile and level, plus gcc's called-once inliner knob, which has no
// pipeline entry of its own.
func matrixToggles(p Profile, level string) []string {
	ts := EnabledPasses(p, level)
	if p == GCC && level != "Og" {
		ts = append(ts, "inline-fncs-called-once")
	}
	return ts
}

func sameBinary(a, b *vm.Binary) bool {
	return codeDigest(a) == codeDigest(b) && bytes.Equal(a.Debug, b.Debug)
}

// TestForksMatchBuild is the fork set's equivalence sweep: for every
// test-suite subject, profile, level and single toggle, the binary
// resumed from the shared prefix — code with owner tags, and the debug
// section — equals the from-scratch Build of the toggled configuration.
func TestForksMatchBuild(t *testing.T) {
	for _, s := range loadSuite(t) {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range []Profile{GCC, Clang} {
				for _, level := range Levels(p) {
					toggles := matrixToggles(p, level)
					fs := NewForks(s.ir0, MustConfig(p, level), toggles)
					for _, tg := range toggles {
						want := Build(s.ir0, MustConfig(p, level, Disable(tg)))
						if !sameBinary(fs.Build(tg), want) {
							t.Errorf("%s-%s -%s: fork build differs from Build", p, level, tg)
						}
					}
				}
			}
		})
	}
}

// TestForksRebuildAfterSnapshotSpent is the retry path: building a
// toggle again after its snapshot went to its last user starts over from
// the O0 module and returns the identical binary.
func TestForksRebuildAfterSnapshotSpent(t *testing.T) {
	s := loadSuite(t)[0]
	ref := MustConfig(GCC, "O2")
	toggles := matrixToggles(GCC, "O2")
	fs := NewForks(s.ir0, ref, toggles)
	spent := 0
	for _, tg := range toggles {
		first := fs.Build(tg)
		if snap := fs.snaps[forkIndex(ref, ref.disabling(tg))]; snap != nil && snap.ctx == nil {
			spent++
		}
		if !sameBinary(first, fs.Build(tg)) {
			t.Errorf("-%s: second Build differs from the first", tg)
		}
	}
	if spent == 0 {
		t.Fatal("no snapshot was spent: the rebuild path went untested")
	}
}

// TestForkIndex pins the fork rules at gcc O2: inliner knobs restart
// from the O0 module, expensive-opts forks at the first expensive entry,
// back-end toggles share the final module, and every other toggle forks
// at its first occurrence.
func TestForkIndex(t *testing.T) {
	ref := MustConfig(GCC, "O2")
	es := pipelines(GCC, "O2")
	first := func(match func(entry) bool) int {
		for i, e := range es {
			if match(e) {
				return i
			}
		}
		t.Fatal("no matching entry")
		return -1
	}
	for _, tg := range matrixToggles(GCC, "O2") {
		var want int
		switch {
		case tg == "inline-small-functions", tg == "inline-functions", tg == "inline-fncs-called-once":
			want = 0
		case tg == "expensive-opts":
			want = first(func(e entry) bool { return e.expensive })
		case es[first(func(e entry) bool { return e.name == tg })].backend:
			want = len(es)
		default:
			want = first(func(e entry) bool { return !e.internal && e.name == tg })
		}
		if got := forkIndex(ref, ref.disabling(tg)); got != want {
			t.Errorf("-%s: fork index %d, want %d", tg, got, want)
		}
	}
}
