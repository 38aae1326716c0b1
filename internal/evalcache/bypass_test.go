package evalcache_test

import (
	"path/filepath"
	"testing"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/tuner"
)

// bypassRuns counts TestDiskUnfingerprintableBypass's runs in this
// process (-count): specsuite keeps cycle counts in process memory, so
// each run measures a plain config no earlier run did.
var bypassRuns int

// TestDiskUnfingerprintableBypass: an FDO config has no fingerprint, so
// tuner.Program.Measure and specsuite.Cycles measure it uncached and
// write nothing to the process store; the plain config's same calls
// write one record each.
func TestDiskUnfingerprintableBypass(t *testing.T) {
	dir := t.TempDir()
	d, err := evalcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))

	p, err := tuner.LoadProgram("bypass", []byte("func main() {\n\tvar x: int = 3;\n\tprint(x * 2);\n}\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	const bench = "505.mcf"
	measure := func(cfg pipeline.Config) {
		t.Helper()
		if _, err := p.Measure(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := specsuite.Cycles(bench, cfg); err != nil {
			t.Fatal(err)
		}
	}

	measure(pipeline.MustConfig(pipeline.Clang, "O2", pipeline.WithFDO(&autofdo.Profile{})))
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) != 0 || snk.Counter("diskcache.write") != 0 {
		t.Fatalf("FDO measurements wrote %d records into %d segments", snk.Counter("diskcache.write"), len(segs))
	}
	plain := pipeline.MustConfig(pipeline.Clang, "O2")
	if bypassRuns > 0 {
		passes := pipeline.EnabledPasses(pipeline.Clang, "O2")
		plain = pipeline.MustConfig(pipeline.Clang, "O2", pipeline.Disable(passes[(bypassRuns-1)%len(passes)]))
	}
	bypassRuns++
	measure(plain)
	for _, ns := range []string{"tuner.scores", "specsuite"} {
		if n := snk.Counter("diskcache." + ns + ".write"); n != 1 {
			t.Errorf("plain measurement wrote %d %s records, want 1", n, ns)
		}
	}
	if n := snk.Counter("diskcache.write"); n != 2 {
		t.Errorf("plain measurements wrote %d records, want 2", n)
	}
}
