package pipeline

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"debugtuner/internal/codegen"
	"debugtuner/internal/ir"
	"debugtuner/internal/passes"
	"debugtuner/internal/staticdbg"
)

const verifySrc = `
var seed: int = 7;

func mix(x: int): int {
	var h: int = x * 31;
	h = h ^ (h >> 5);
	return h + seed;
}
func main(): int {
	var acc: int = 0;
	for (var i: int = 0; i < 20; i = i + 1) {
		if (i % 3 == 0) {
			acc = acc + mix(i);
		} else {
			acc = acc - i;
		}
	}
	print(acc);
	return acc;
}
`

func verifyIR(t *testing.T) *ir.Program {
	t.Helper()
	info, err := Frontend("t.mc", []byte(verifySrc))
	if err != nil {
		t.Fatal(err)
	}
	ir0, err := BuildIR(info)
	if err != nil {
		t.Fatal(err)
	}
	return ir0
}

func verifyCfg(t *testing.T, p Profile, level string) Config {
	t.Helper()
	cfg, err := NewConfig(p, level)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestBuildVerifiedCleanAndMatchesBuild(t *testing.T) {
	ir0 := verifyIR(t)
	for _, tc := range []struct {
		p     Profile
		level string
	}{{GCC, "O2"}, {Clang, "O3"}, {GCC, "Og"}} {
		cfg := verifyCfg(t, tc.p, tc.level)
		rep := BuildVerified(ir0, cfg, false)
		if vs := rep.Violations(); len(vs) != 0 {
			t.Errorf("%s: violations on a clean build: %v", cfg.Name(), vs)
		}
		if errs := rep.VerifyErrs(); len(errs) != 0 {
			t.Errorf("%s: ir.Verify failures: %v", cfg.Name(), errs)
		}
		// The last prefix compile is the real configuration: its output
		// must be bit-identical to what Build produces.
		want := Build(ir0, cfg)
		if rep.Bin.TextHash() != want.TextHash() {
			t.Errorf("%s: verified build text differs from Build", cfg.Name())
		}
		if rep.Total.Lines == 0 || rep.Final.Lines > rep.Total.Lines {
			t.Errorf("%s: survival %+v out of range of baseline %+v",
				cfg.Name(), rep.Final, rep.Total)
		}
	}
}

func TestBuildVerifiedDebugifyClean(t *testing.T) {
	ir0 := verifyIR(t)
	cfg := verifyCfg(t, GCC, "O2")
	rep := BuildVerified(ir0, cfg, true)
	if vs := rep.Violations(); len(vs) != 0 {
		t.Fatalf("debugified build produced violations: %v", vs)
	}
	if errs := rep.VerifyErrs(); len(errs) != 0 {
		t.Fatalf("debugified build fails ir.Verify: %v", errs)
	}
	if rep.Total.Lines == 0 || rep.Total.Vars == 0 {
		t.Fatalf("empty synthetic baseline: %+v", rep.Total)
	}
	if rep.Final.Lines > rep.Total.Lines || rep.Final.Vars > rep.Total.Vars {
		t.Fatalf("survival %+v exceeds baseline %+v", rep.Final, rep.Total)
	}
}

func TestBuildVerifiedDeterministic(t *testing.T) {
	ir0 := verifyIR(t)
	cfg := verifyCfg(t, GCC, "O2")
	a := BuildVerified(ir0, cfg, true)
	b := BuildVerified(ir0, cfg, true)
	if !reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatal("two verified builds report different steps")
	}
	if a.Total != b.Total || a.Final != b.Final || a.FinalIR != b.FinalIR {
		t.Fatal("two verified builds report different survival")
	}
}

func TestBuildVerifiedStepLabelsMatchLedger(t *testing.T) {
	ir0 := verifyIR(t)
	cfg := verifyCfg(t, GCC, "O2")
	rep := BuildVerified(ir0, cfg, false)
	sawCodegen := false
	for _, st := range rep.Steps {
		switch {
		case st.Label == "codegen":
			sawCodegen = true
			if !st.Backend {
				t.Error("codegen step not marked backend")
			}
		case st.Backend:
			if !IsBackend(st.Label) {
				t.Errorf("backend step %q is not a known backend toggle", st.Label)
			}
		default:
			name := strings.TrimPrefix(st.Label, "cleanup/")
			if passes.Lookup(name) == nil {
				t.Errorf("step %q names no registered pass", st.Label)
			}
		}
	}
	if !sawCodegen {
		t.Error("no codegen base step reported")
	}
}

func TestBackendTogglesRespectDisabled(t *testing.T) {
	ir0 := verifyIR(t)
	cfg, err := NewConfig(GCC, "O2", DisableSet(map[string]bool{"schedule-insns2": true}))
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildVerified(ir0, cfg, false)
	for _, st := range rep.Steps {
		if st.Label == "schedule-insns2" {
			t.Fatal("disabled backend toggle still attributed a step")
		}
	}
	// O0 has no backend toggles at all — just the codegen base step.
	rep0 := BuildVerified(ir0, verifyCfg(t, GCC, "O0"), false)
	for _, st := range rep0.Steps {
		if st.Backend && st.Label != "codegen" {
			t.Fatalf("O0 attributed backend toggle %q", st.Label)
		}
	}
}

// TestFingerprintGateSkipsOnlyNoOps: verify-each skips the mid-chain
// compile after a pass whose module fingerprint equals the last
// compiled one, on the promise that the base-options binary would be the
// same. Check the promise on every step of a debugified build: each
// skipped step must compile to the code and debug bytes of the last
// compiled step. Block frequencies must be in the fingerprint — the
// always-on register allocator weights spill choice by them — or steps
// right after guess-branch-probability break it.
func TestFingerprintGateSkipsOnlyNoOps(t *testing.T) {
	src, err := os.ReadFile("../testsuite/programs/zlib.mc")
	if err != nil {
		t.Fatal(err)
	}
	info, err := Frontend("zlib.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	ir0, err := BuildIR(info)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Profile{GCC, Clang} {
		cfg := verifyCfg(t, p, "O2")
		work, _ := staticdbg.Inject(ir0)
		opts := codegen.Options{OptimisticRanges: p == GCC}
		digest := func(prog *ir.Program) string {
			bin := codegen.Compile(prog, opts)
			return codeDigest(bin) + fmt.Sprintf(" %x", sha256.Sum256(bin.Debug))
		}
		lastFP, lastBin := irFingerprint(work), digest(work)
		skipped := 0
		optimizeIR(work, cfg, func(label string, prog *ir.Program) {
			fp, bin := irFingerprint(prog), digest(prog)
			if fp != lastFP {
				lastFP, lastBin = fp, bin
				return
			}
			skipped++
			if bin != lastBin {
				t.Errorf("%s: gate skips %s, but its binary differs from the last compiled step's",
					cfg.Name(), label)
			}
		})
		if skipped == 0 {
			t.Errorf("%s: the gate skipped no step", cfg.Name())
		}
	}
}
