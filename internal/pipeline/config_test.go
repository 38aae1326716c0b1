package pipeline

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNewConfigValidates(t *testing.T) {
	if _, err := NewConfig("icc", "O2"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := NewConfig(Clang, "Og"); err == nil {
		t.Error("clang has no Og but it was accepted")
	}
	if _, err := NewConfig(GCC, "O4"); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := NewConfig(GCC, "O2", Disable("tree-frre")); err == nil {
		t.Error("typoed pass name accepted")
	}
	if _, err := NewConfig(GCC, "O2", Disable("machine-sink")); err == nil {
		t.Error("clang-only toggle accepted at gcc-O2")
	}
	if _, err := NewConfig(GCC, "O0", Disable("dce")); err == nil {
		t.Error("disable at O0 accepted (O0 runs no passes)")
	}
	for _, p := range []Profile{GCC, Clang} {
		for _, l := range append([]string{"O0"}, Levels(p)...) {
			if _, err := NewConfig(p, l); err != nil {
				t.Errorf("NewConfig(%s, %s): %v", p, l, err)
			}
			for _, name := range EnabledPasses(p, l) {
				if _, err := NewConfig(p, l, Disable(name)); err != nil {
					t.Errorf("NewConfig(%s, %s, -%s): %v", p, l, name, err)
				}
			}
		}
	}
	// The fine-grained gcc inliner knob is valid at O1–O3 only.
	for _, l := range []string{"O1", "O2", "O3"} {
		if _, err := NewConfig(GCC, l, Disable("inline-fncs-called-once")); err != nil {
			t.Errorf("inline-fncs-called-once rejected at gcc-%s: %v", l, err)
		}
	}
	if _, err := NewConfig(Clang, "O2", Disable("inline-fncs-called-once")); err == nil {
		t.Error("gcc-only inliner knob accepted on clang")
	}
}

func TestNewConfigFingerprintCoherence(t *testing.T) {
	a := MustConfig(GCC, "O2", Disable("dce", "gvn"))
	b := MustConfig(GCC, "O2", Disable("gvn"), Disable("dce"))
	c := MustConfig(GCC, "O2", DisableSet(map[string]bool{
		"dce": true, "gvn": true, "dse": false, // false entries must not leak
	}))
	fa, _ := a.Fingerprint()
	fb, _ := b.Fingerprint()
	fc, _ := c.Fingerprint()
	if fa != fb || fa != fc {
		t.Errorf("equivalent configs fingerprint differently: %q %q %q", fa, fb, fc)
	}
	if len(c.Disabled) != 2 {
		t.Errorf("DisableSet kept a false entry: %v", c.Disabled)
	}
}

func TestNewConfigOptions(t *testing.T) {
	cfg := MustConfig(Clang, "O2", WithProfiling(), WithSalvage(false), WithOptimistic(true))
	if !cfg.ForProfiling || cfg.SalvageOverride == nil || *cfg.SalvageOverride ||
		cfg.OptimisticOverride == nil || !*cfg.OptimisticOverride {
		t.Errorf("options not applied: %+v", cfg)
	}
	key, ok := cfg.Fingerprint()
	if !ok || !strings.Contains(key, "/prof") ||
		!strings.Contains(key, "salvage=false") || !strings.Contains(key, "optimistic=true") {
		t.Errorf("fingerprint misses option state: %q ok=%t", key, ok)
	}
}

func TestMustConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustConfig did not panic on invalid config")
		}
	}()
	MustConfig(GCC, "O2", Disable("no-such-pass"))
}

// TestConfigsConcurrent: NewConfig and EnabledPasses read one toggle
// table per pipeline, built once and shared. Concurrent callers (run
// under -race) must not race on it, and an append to EnabledPasses's
// slice must copy instead of writing into the shared one.
func TestConfigsConcurrent(t *testing.T) {
	type level struct {
		p Profile
		l string
	}
	want := map[level][]string{}
	for _, p := range []Profile{GCC, Clang} {
		for _, l := range append([]string{"O0"}, Levels(p)...) {
			want[level{p, l}] = slices.Clone(EnabledPasses(p, l))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lv := range want {
				names := EnabledPasses(lv.p, lv.l)
				_ = append(names, "inline-fncs-called-once")
				for _, n := range names {
					if _, err := NewConfig(lv.p, lv.l, Disable(n)); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for lv, w := range want {
		if got := EnabledPasses(lv.p, lv.l); !slices.Equal(got, w) {
			t.Errorf("%s-%s: toggles %v after concurrent use, want %v", lv.p, lv.l, got, w)
		}
	}
}
