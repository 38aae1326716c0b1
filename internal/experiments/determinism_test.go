package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"debugtuner/internal/telemetry"
	"debugtuner/internal/workerpool"
)

var stdoutVariant = flag.String("stdout-variant", "",
	"internal: render one TestStdoutUnaffectedByTelemetry variant, given as telemetry,jobs,outpath")

// stdoutVariants are the determinism contract's runs; the first is the
// reference the others must equal byte for byte.
var stdoutVariants = []struct {
	name string
	on   bool
	jobs int
}{
	{"plain-j1", false, 1},
	{"telemetry-j1", true, 1},
	{"plain-j8", false, 8},
	{"telemetry-j8", true, 8},
}

// TestStdoutUnaffectedByTelemetry is the determinism contract behind
// the -trace/-metrics flags: experiment output must stay byte-identical
// whether telemetry is collecting or not, at any worker count. Each
// variant runs in a fresh process (TestStdoutVariantHelper), so every
// one builds its tables cold: suites and their score caches are
// memoized process-wide, and a shared process would let only the first
// variant compute anything.
func TestStdoutUnaffectedByTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var ref []byte
	for i, v := range stdoutVariants {
		out := filepath.Join(dir, v.name+".txt")
		cmd := exec.Command(exe, "-test.run", "^TestStdoutVariantHelper$",
			"-stdout-variant", fmt.Sprintf("%t,%d,%s", v.on, v.jobs, out))
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", v.name, err, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if i == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s output differs from %s reference (%d vs %d bytes)",
				v.name, stdoutVariants[0].name, len(got), len(ref))
		}
	}
}

// TestStdoutVariantHelper is re-executed as a separate process by
// TestStdoutUnaffectedByTelemetry. It renders Tables I and IV with
// telemetry on or off at the given worker count into the output path.
func TestStdoutVariantHelper(t *testing.T) {
	if *stdoutVariant == "" {
		t.Skip("not in helper mode")
	}
	var on bool
	var jobs int
	var out string
	if _, err := fmt.Sscanf(*stdoutVariant, "%t,%d,%s", &on, &jobs, &out); err != nil {
		t.Fatalf("-stdout-variant %q: %v", *stdoutVariant, err)
	}
	var snk *telemetry.Sink
	if on {
		snk = telemetry.NewSink()
		prev := telemetry.Install(snk)
		defer telemetry.Install(prev)
	}
	workerpool.SetWorkers(jobs)
	defer workerpool.SetWorkers(0)
	r := NewRunner(Options{
		SynthCount:  8,
		CorpusExecs: 120,
		SampleEvery: 997,
		Dy:          []int{3},
		SpecSubset:  []string{"531.deepsjeng"},
	})
	var buf bytes.Buffer
	for _, run := range []func(io.Writer) error{r.Table1, r.Table4} {
		if err := run(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if snk != nil && len(snk.Ledger()) == 0 {
		t.Fatal("telemetry variant built nothing under its sink")
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
