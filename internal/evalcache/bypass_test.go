package evalcache_test

import (
	"testing"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/tuner"
)

// bypassRuns counts TestDiskUnfingerprintableBypass's runs in this
// process (-count): specsuite keeps cycle counts in process memory, so
// each run measures a config no earlier run did.
var bypassRuns int

// TestDiskUnfingerprintableBypass: every config has a fingerprint, so
// nothing bypasses the process store: a config's
// tuner.Program.Measure and specsuite.Cycles write one record each.
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
