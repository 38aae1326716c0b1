// Package options is the one place the shared runtime flags of the
// DebugTuner commands live: the worker-pool size, telemetry outputs,
// the persistent evalcache directory, and the resilience layer's
// retry/timeout/chaos knobs. Before this package each command
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
	// The persistent measurement store makes warm reruns skip the
	// build+trace work entirely, and is what an interrupted run resumes
	// from. Each record is keyed by tool hash × store format × the
	// cell's declared inputs, so stdout is byte-identical with a cold
	// cache, a warm cache, or none at all.
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
	if *f.Chaos != "" || *f.CellTimeout > 0 || *f.Retries != 2 {
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

// Finish flushes the runtime at the end of a command, interrupted or
// not: the quarantine gap report (when an executor was installed), the
// process's one sync of its store segments, and the telemetry exports.
// It returns the command's exit code — 3 when the run completed but
// quarantined cells — or an error for IO failures (exit 1 at the
// caller).
func (rt *Runtime) Finish(w io.Writer) (int, error) {
	code := 0
	// Like every store failure, a failed sync costs recomputation on a
	// rerun, never a result: warn and go on.
	if err := evalcache.DefaultDisk().Sync(); err != nil {
		fmt.Fprintf(os.Stderr, "-cachedir: sync: %v\n", err)
	}
	if rt.Executor != nil {
		rt.Executor.WriteReport(w)
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
