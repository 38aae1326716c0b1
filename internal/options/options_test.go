package options

import (
	"bytes"
	"context"
	"flag"
	"testing"

	"debugtuner/internal/resilience"
)

// build parses args into a fresh flag set and applies it.
func build(t *testing.T, args ...string) (*Runtime, error) {
	t.Helper()
	fs := flag.NewFlagSet("options", flag.ContinueOnError)
	f := Install(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Build()
}

// TestFinishExitsThreeOnQuarantine: with no resilience flag given, a
// panicking cell still quarantines under the process's executor, and
// Finish prints the gap report and returns the gaps exit code.
func TestFinishExitsThreeOnQuarantine(t *testing.T) {
	defer resilience.Install(resilience.Install(nil))
	rt, err := build(t, "-cachedir", "off")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := rt.Finish(&out); err != nil || code != 0 || out.Len() != 0 {
		t.Fatalf("clean run: code %d, err %v, report %q; want 0 and nothing", code, err, out.String())
	}
	resilience.Run(context.Background(), "cell", func(context.Context) (int, error) {
		panic("pass exploded")
	})
	code, err := rt.Finish(&out)
	if err != nil || code != 3 {
		t.Fatalf("code %d, err %v; want 3", code, err)
	}
	if got, want := out.String(), "QUARANTINED(1)\n  cell: panic\n"; got != want {
		t.Fatalf("report %q, want %q", got, want)
	}
}

// TestChaosFlag: -chaos installs an executor with the parsed schedule,
// and a malformed spec is a usage error.
func TestChaosFlag(t *testing.T) {
	defer resilience.Install(resilience.Install(nil))
	before := resilience.Active()
	if _, err := build(t, "-cachedir", "off", "-chaos", "rate=1,seed=2"); err != nil {
		t.Fatal(err)
	}
	if resilience.Active() == before {
		t.Fatal("-chaos installed no executor")
	}
	if _, err := resilience.Run(context.Background(), "cell", func(context.Context) (int, error) {
		return 1, nil
	}); !resilience.IsQuarantined(err) {
		t.Fatalf("rate-1 chaos left a cell unfaulted: %v", err)
	}
	if _, err := build(t, "-cachedir", "off", "-chaos", "rate=2"); !IsUsage(err) {
		t.Fatalf("bad -chaos: err %v, want a usage error", err)
	}
}
