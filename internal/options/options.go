// Package options is the one place the shared runtime flags of the
// DebugTuner commands live: the worker-pool size, telemetry outputs,
// the persistent evalcache directory, and the resilience layer's
// retry/timeout/chaos/journal knobs. Before this package each command
// re-declared its own copies and they drifted (debugtuner had no
// -cachedir, minicc no -j); now every command calls Install on its flag
// set and Build once flags are parsed, and the flags cannot diverge.
package options

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/workerpool"
)

// Flags holds the parsed-flag storage registered by Install. Values
// are meaningful only after the owning flag set's Parse.
type Flags struct {
	Jobs        *int
	Trace       *string
	Metrics     *string
	Journal     *string
	Resume      *string
	Chaos       *string
	CacheDir    *string
	CellTimeout *time.Duration
	Retries     *int
}

// Install registers the shared flags on fs and returns their storage.
func Install(fs *flag.FlagSet) *Flags {
	return &Flags{
		Jobs: fs.Int("j", 0,
			"worker-pool size for the evaluation engine (0 = GOMAXPROCS)"),
		Trace: fs.String("trace", "",
			"write spans and counters as Chrome trace-event JSON to this file"),
		Metrics: fs.String("metrics", "",
			"write a JSON telemetry summary (counters, maxima, damage ledger) to this file"),
		Journal: fs.String("journal", "",
			"resilience: write a fresh checkpoint journal (JSONL) to this file"),
		Resume: fs.String("resume", "",
			"resilience: resume from an existing checkpoint journal, skipping completed cells"),
		Chaos: fs.String("chaos", "",
			"resilience: deterministic fault injection, e.g. rate=0.05,seed=7"),
		CacheDir: fs.String("cachedir", "",
			"persistent evalcache directory (default $DEBUGTUNER_CACHE_DIR, "+
				"else the user cache dir); \"off\" disables persistence"),
		CellTimeout: fs.Duration("cell-timeout", 0,
			"resilience: per-cell deadline (0 = none); overruns count as transient failures"),
		Retries: fs.Int("retries", 2,
			"resilience: extra attempts per cell after the first"),
	}
}

// UsageError marks a Build failure the command should report as bad
// usage (exit 2) rather than an environment failure (exit 1).
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return e.msg }

// IsUsage reports whether err is a usage error.
func IsUsage(err error) bool {
	_, ok := err.(*UsageError)
	return ok
}

// Runtime is the shared state Build installed; Finish tears it down.
type Runtime struct {
	// Executor is the installed resilience executor, nil when no
	// resilience flag asked for one (the byte-identical fault-free path).
	Executor *resilience.Executor
	// Sink is the telemetry sink, non-nil when -trace or -metrics was
	// given (commands may enable one themselves for other reasons).
	Sink *telemetry.Sink

	trace, metrics string
}

// Build applies the parsed flags to the process-wide runtime: the
// persistent evalcache, the worker pool, the resilience executor, and
// telemetry. Diagnostics that are warnings (an unusable cache
// directory) go to stderr; real failures return an error, marked
// UsageError when the flags themselves are wrong.
func (f *Flags) Build() (*Runtime, error) {
	if *f.Journal != "" && *f.Resume != "" {
		return nil, &UsageError{"-journal and -resume are mutually exclusive"}
	}
	// The persistent measurement store makes warm reruns skip the
	// build+trace work entirely. Results are keyed by tool hash × store
	// format × subject source hash × config fingerprint, so stdout is
	// byte-identical with a cold cache, a warm cache, or none at all.
	if *f.CacheDir != "off" {
		d, err := evalcache.OpenDisk(*f.CacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cachedir: %v (persistence disabled)\n", err)
		} else {
			evalcache.SetDefaultDisk(d)
		}
	}
	workerpool.SetWorkers(*f.Jobs)

	rt := &Runtime{trace: *f.Trace, metrics: *f.Metrics}
	// The resilience layer stays uninstalled (nil executor = direct call,
	// byte-identical fault-free path) unless a resilience flag asks for it.
	if *f.Chaos != "" || *f.Journal != "" || *f.Resume != "" ||
		*f.CellTimeout > 0 || *f.Retries != 2 {
		pol := resilience.DefaultPolicy()
		pol.Retries = *f.Retries
		pol.CellTimeout = *f.CellTimeout
		ex := resilience.NewExecutor(pol)
		if *f.Chaos != "" {
			c, err := resilience.ParseChaos(*f.Chaos)
			if err != nil {
				return nil, &UsageError{fmt.Sprintf("-chaos: %v", err)}
			}
			ex.Chaos = c
			ex.Policy.Seed = c.Seed
		}
		switch {
		case *f.Journal != "":
			j, err := resilience.CreateJournal(*f.Journal)
			if err != nil {
				return nil, fmt.Errorf("-journal: %v", err)
			}
			ex.Journal = j
		case *f.Resume != "":
			j, err := resilience.ResumeJournal(*f.Resume)
			if err != nil {
				return nil, fmt.Errorf("-resume: %v", err)
			}
			if j.Torn() {
				fmt.Fprintln(os.Stderr, "resume: discarded torn final journal record")
			}
			ex.Journal = j
		}
		resilience.Install(ex)
		rt.Executor = ex
	}
	switch {
	case *f.Trace != "":
		rt.Sink = telemetry.NewTraceSink()
		telemetry.Install(rt.Sink)
	case *f.Metrics != "":
		rt.Sink = telemetry.Enable()
	}
	return rt, nil
}

// Finish flushes the runtime at the end of a command: the quarantine
// gap report and journal (when an executor was installed) and the
// telemetry exports. It returns the command's exit code — 3 when the
// run completed but quarantined cells — or an error for IO failures
// (exit 1 at the caller).
func (rt *Runtime) Finish(w io.Writer) (int, error) {
	code := 0
	if rt.Executor != nil {
		rt.Executor.WriteReport(w)
		if rt.Executor.Journal != nil {
			if err := rt.Executor.Journal.Close(); err != nil {
				return 1, fmt.Errorf("journal close: %v", err)
			}
		}
		if len(rt.Executor.Quarantined()) > 0 {
			code = 3
		}
	}
	if rt.Sink != nil {
		if err := telemetry.ExportFiles(rt.Sink, rt.trace, rt.metrics); err != nil {
			return 1, fmt.Errorf("telemetry export: %v", err)
		}
	}
	return code, nil
}
