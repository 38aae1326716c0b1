package options

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"syscall"
)

// ExitInterrupted is the exit code for a run stopped by SIGINT/SIGTERM
// after syncing its store: distinct from failure (1), usage (2), and
// quarantine gaps (3) so CI and scripts can tell "stopped but
// resumable" apart from "broken".
const ExitInterrupted = 4

// ErrInterrupted is the sentinel an experiment returns when it stopped
// early on the interrupt context. The command maps it to
// ExitInterrupted after flushing the runtime, so every cell completed so
// far is in the store and a rerun on the same store picks up where the
// signal landed.
var ErrInterrupted = errors.New("interrupted by signal")

// IsInterrupted reports whether err means "stopped by signal, store
// intact" — either the sentinel itself or the context cancellation that
// the worker pool surfaces when the interrupt context fires mid-map.
func IsInterrupted(err error) bool {
	return errors.Is(err, ErrInterrupted) || errors.Is(err, context.Canceled)
}

// NotifyInterrupt returns a context cancelled by the first SIGINT or
// SIGTERM. After the first signal the handler uninstalls itself, so a
// second signal kills the process the default way — the escape hatch
// when a graceful stop hangs.
func NotifyInterrupt() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		signal.Stop(ch)
		cancel()
	}()
	return ctx
}
