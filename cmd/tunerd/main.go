// Command tunerd is the DebugTuner service: a long-lived HTTP/JSON
// server that accepts MiniC compilation units and serves tuned Ox-dy
// configurations (/v1/tune), Pareto fronts (/v1/pareto), and
// difftest + static-verification debuggability reports (/v1/report),
// all in the versioned wire format of internal/api.
//
// Usage:
//
//	tunerd [flags]
//
//	-addr host:port       listen address (default 127.0.0.1:8347;
//	                      port 0 picks an ephemeral port)
//	-drain-grace dur      503 window after SIGTERM before closing
//	-drain-timeout dur    hard bound on the graceful drain
//	-budget N             per-run VM step budget
//
// plus the shared runtime flags of internal/options (-j, -cachedir,
// -cell-timeout, ...). On startup it prints "tunerd listening on ADDR"
// to stdout. SIGTERM/SIGINT starts a graceful drain: in-flight
// requests finish, new ones get a typed 503 "draining" error for the
// grace window, then the process exits 0.
//
// Responses are cached by canonical request key (memory + the shared
// disk store when -cachedir is enabled), concurrent identical requests
// coalesce onto one computation, and every evaluation cell runs under
// the resilience executor, so a panicking cell quarantines instead of
// killing the server. Telemetry is always on and served at
// /debug/metrics; the quarantine list at /debug/quarantine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"debugtuner/internal/options"
	"debugtuner/internal/resilience"
	"debugtuner/internal/serve"
	"debugtuner/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8347", "listen address (port 0 = ephemeral)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond,
		"window after SIGTERM during which new requests get a typed 503 before the listener closes")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second,
		"hard bound on the graceful drain; in-flight work past it is abandoned")
	budget := flag.Int64("budget", 0, "per-run VM step budget (0 = default)")
	shared := options.Install(flag.CommandLine)
	flag.Parse()
	rt, err := shared.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunerd:", err)
		if options.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	// A server always runs with telemetry (/debug/metrics must answer)
	// and a resilience executor (a panicking or stalling cell must
	// quarantine, not kill the process), whether or not flags asked.
	if telemetry.Active() == nil {
		telemetry.Enable()
	}
	if resilience.Active() == nil {
		resilience.Install(resilience.NewExecutor(resilience.DefaultPolicy()))
	}

	srv := serve.New(serve.Options{
		Addr:       *addr,
		DrainGrace: *drainGrace,
		Budget:     *budget,
	})
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tunerd:", err)
		os.Exit(1)
	}
	fmt.Printf("tunerd listening on %s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("tunerd: %s, draining\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tunerd: drain:", err)
	}
	// The shared teardown writes the quarantine report and telemetry
	// exports; a drained server exits 0 even with quarantined cells —
	// they were surfaced per-response and via /debug/quarantine. The
	// always-on executor is only in rt when flags created it, so report
	// it here when it isn't.
	if rt.Executor == nil {
		resilience.Active().WriteReport(os.Stdout)
	}
	if _, err := rt.Finish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tunerd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}
