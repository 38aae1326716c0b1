package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"debugtuner/internal/passes"
	"debugtuner/internal/synth"
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

// synthSubjects are small multi-function units like tunerd's traffic:
// a fixed set of generator seeds with one to four helpers each and
// shallow nesting.
func synthSubjects(t *testing.T) []suiteSubject {
	t.Helper()
	var out []suiteSubject
	for seed := int64(1); seed <= 8; seed++ {
		opts := synth.DefaultOptions()
		opts.Funcs = 1 + int(seed%4)
		opts.MaxDepth, opts.MaxStmts = 2, 4
		name := fmt.Sprintf("synth%d", seed)
		info, err := Frontend(name+".mc", []byte(synth.Generate(seed, opts)))
		if err != nil {
			t.Fatal(err)
		}
		ir0, err := BuildIR(info)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, suiteSubject{name, ir0})
	}
	return out
}

// TestForksMatchBuild is the fork set's equivalence sweep: for every
// test-suite subject and a fixed set of generated units, every profile,
// level and single toggle, the fork set's answer equals the from-scratch
// Build of the toggled configuration — code with owner tags, and the
// debug section. A nil answer (nothing built, or a build that rejoined
// the reference) claims the reference's binary, so the from-scratch
// build is compared with the reference's. Every outcome must occur.
func TestForksMatchBuild(t *testing.T) {
	var mu sync.Mutex
	outcomes := map[string]int{}
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		t.Logf("outcomes: %v", outcomes)
		for _, o := range []string{forkUnchanged, forkBackend, forkResumed, forkRestarted, forkRejoined} {
			if outcomes[o] == 0 && !t.Failed() {
				t.Errorf("no toggle had outcome %q: that path went untested", o)
			}
		}
	})
	for _, s := range append(loadSuite(t), synthSubjects(t)...) {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			seen := map[string]int{}
			for _, p := range []Profile{GCC, Clang} {
				for _, level := range Levels(p) {
					ref := MustConfig(p, level)
					refBin := Build(s.ir0, ref)
					toggles := matrixToggles(p, level)
					fs := NewForks(s.ir0, ref, toggles)
					if !sameBinary(fs.Reference(), refBin) {
						t.Errorf("%s-%s: fork set's reference differs from Build", p, level)
					}
					for _, tg := range toggles {
						got, outcome := fs.build(ref.disabling(tg))
						seen[outcome]++
						if got == nil {
							got = refBin
						}
						if !sameBinary(got, Build(s.ir0, MustConfig(p, level, Disable(tg)))) {
							t.Errorf("%s-%s -%s (%s): fork set's binary differs from Build", p, level, tg, outcome)
						}
					}
				}
			}
			mu.Lock()
			for k, n := range seen {
				outcomes[k] += n
			}
			mu.Unlock()
		})
	}
}

// TestForksRebuildAfterSnapshotSpent is the retry path: building a
// toggle again after its saved state went to its last user restarts from
// the O0 module and returns the identical answer.
func TestForksRebuildAfterSnapshotSpent(t *testing.T) {
	s := loadSuite(t)[0]
	ref := MustConfig(GCC, "O2")
	toggles := matrixToggles(GCC, "O2")
	fs := NewForks(s.ir0, ref, toggles)
	restarted := 0
	for _, tg := range toggles {
		first, resumed := fs.build(ref.disabling(tg))
		again, rebuilt := fs.build(ref.disabling(tg))
		if resumed == forkResumed && rebuilt == forkRestarted {
			restarted++
		}
		if (first == nil) != (again == nil) || first != nil && !sameBinary(first, again) {
			t.Errorf("-%s: second build differs from the first", tg)
		}
	}
	if restarted == 0 {
		t.Fatal("no resumed toggle was rebuilt from O0: the retry path went untested")
	}
}

// TestForkIndex pins the fork rules at gcc O2 against a from-scratch
// replay of each entry: a toggle forks at the first of its entries
// whose run changes the reference state; the inliner knobs restart from
// the O0 module; back-end toggles compile the reference module; and a
// toggle whose entries changed nothing builds nothing. Changes are
// judged on the state, not on a pass's changed result: toplevel-reorder
// returns false but sets UnitAtATime.
func TestForkIndex(t *testing.T) {
	s := loadSuite(t)[0]
	ref := MustConfig(GCC, "O2")
	es := pipelines(GCC, "O2")
	fs := NewForks(s.ir0, ref, matrixToggles(GCC, "O2"))

	ctx := newContext(s.ir0.Clone(), ref)
	if passes.Lookup("toplevel-reorder").Run(ctx) || !ctx.UnitAtATime {
		t.Fatal("toplevel-reorder should set UnitAtATime and report no change")
	}
	if es[0].name != "toplevel-reorder" || fs.at[0] == fs.at[1] {
		t.Error("the effect record misses toplevel-reorder's change")
	}

	// changedBy replays the reference pipeline from scratch up to entry
	// i and reports whether running entry i changes the state.
	changedBy := func(i int) bool {
		ctx := newContext(s.ir0.Clone(), ref)
		runPasses(ctx, ref, 0, func(j int, _ bool) bool { return j == i }, nil)
		var enc stateEnc
		before := bytes.Clone(enc.encode(ctx))
		if e := es[i]; !e.backend {
			passes.Lookup(e.name).Run(ctx)
		}
		return !bytes.Equal(before, enc.encode(ctx))
	}
	for _, tg := range matrixToggles(GCC, "O2") {
		cfg := ref.disabling(tg)
		_, outcome := fs.build(cfg)
		switch tg {
		case "inline-small-functions", "inline-functions", "inline-fncs-called-once":
			if !fs.knobs(cfg) || (outcome != forkRestarted && outcome != forkRejoined) {
				t.Errorf("-%s: outcome %s, want a restart from O0", tg, outcome)
			}
			continue
		}
		first := -1
		for i := range es {
			if fs.differs(i, cfg) && changedBy(i) {
				first = i
				break
			}
		}
		backend := false
		for _, e := range es {
			backend = backend || e.name == tg && e.backend
		}
		var want []string
		switch {
		case backend:
			want = []string{forkBackend}
		case first < 0:
			want = []string{forkUnchanged}
		default:
			want = []string{forkResumed, forkRejoined}
			if snap := fs.snaps[first]; snap == nil {
				t.Errorf("-%s: no state saved at its fork index %d (%s)", tg, first, es[first].name)
			}
		}
		if outcome != want[0] && (len(want) == 1 || outcome != want[1]) {
			t.Errorf("-%s: outcome %s, want %v (first changing entry %d)", tg, outcome, want, first)
		}
	}
}
