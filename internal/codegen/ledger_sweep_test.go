package codegen_test

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"debugtuner/internal/codegen"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/telemetry"
)

// TestDenseLedgerMatchesOracle is the stamped MIR ledger's exactness
// sweep: for every test-suite subject, profile and level, each
// (stage, function) cell Compile records equals the map-based oracle's
// on every field but wall time.
func TestDenseLedgerMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the whole test suite")
	}
	srcs, err := filepath.Glob("../testsuite/programs/*.mc")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no test-suite sources: %v", err)
	}
	sort.Strings(srcs)
	cells, events := 0, int64(0)
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := pipeline.Frontend(filepath.Base(path), src)
		if err != nil {
			t.Fatal(err)
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, level := range pipeline.Levels(p) {
				prog, opts := pipeline.OptimizeIR(ir0, pipeline.MustConfig(p, level))
				snk := telemetry.NewSink()
				prev := telemetry.Install(snk)
				codegen.Compile(prog, opts)
				telemetry.Install(prev)

				dense, oracle := snk.Ledger(), codegen.OracleLedger(prog, opts)
				if len(dense) != len(oracle) {
					t.Errorf("%s %s-%s: %d dense cells, %d oracle cells",
						filepath.Base(path), p, level, len(dense), len(oracle))
				}
				for k, want := range oracle {
					got := dense[k]
					got.WallNS = 0
					if got != want {
						t.Errorf("%s %s-%s %s/%s: dense %+v, oracle %+v",
							filepath.Base(path), p, level, k.Pass, k.Func, got, want)
					}
					events += want.Events()
				}
				cells += len(oracle)
			}
		}
	}
	if events == 0 {
		t.Fatal("the sweep saw no damage events; it compares nothing")
	}
	t.Logf("%d ledger cells with %d damage events agree", cells, events)
}
