package resilience

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"debugtuner/internal/ir"
	"debugtuner/internal/vm"
)

// Kind labels the terminal failure mode of a quarantined cell.
type Kind string

const (
	// KindPanic: the cell's goroutine panicked (captured, not fatal).
	KindPanic Kind = "panic"
	// KindDeadline: the cell overran its per-cell deadline.
	KindDeadline Kind = "deadline"
	// KindTransient: the cell kept failing with transiently-classified
	// errors until its retries ran out.
	KindTransient Kind = "transient"
	// KindPermanent: the cell failed with a deterministic error (budget
	// exhaustion, build/trace failure) that retrying cannot fix.
	KindPermanent Kind = "permanent"
)

// CellError is the typed terminal error of a quarantined cell. It
// implements Uncacheable so content-addressed caches (evalcache) evict
// it instead of memoizing the failure, letting a resumed run retry.
type CellError struct {
	// Key is the cell's key (config fingerprint × subject hash).
	Key string
	// Kind is the failure mode of the final attempt.
	Kind Kind
	// Attempts is how many attempts were made before quarantining.
	Attempts int
	// Pass is the optimization pass attributed from the panicking
	// goroutine's stack, when the failure originated inside one.
	Pass string
	// Err is the final attempt's underlying error.
	Err error
}

func (e *CellError) Error() string {
	s := fmt.Sprintf("cell %s quarantined after %d attempt(s): %s: %v",
		e.Key, e.Attempts, e.Kind, e.Err)
	if e.Pass != "" {
		s += fmt.Sprintf(" [pass %s]", e.Pass)
	}
	return s
}

func (e *CellError) Unwrap() error { return e.Err }

// Uncacheable marks quarantined results as not-memoizable: a cache that
// stored them would pin the failure for the life of the process, while
// the whole point of quarantine is that a later resume may succeed.
func (e *CellError) Uncacheable() bool { return true }

// IsQuarantined reports whether err is (or wraps) a CellError.
func IsQuarantined(err error) bool {
	var ce *CellError
	return errors.As(err, &ce)
}

// Class is the retry classifier's verdict on one attempt's error.
type Class int

const (
	// ClassPermanent errors are deterministic: retrying reruns the same
	// computation to the same failure, so the cell quarantines at once.
	ClassPermanent Class = iota
	// ClassTransient errors may be environmental (a stalled machine, an
	// injected fault, a crashed worker); the cell retries with backoff.
	ClassTransient
)

// Classify sorts an attempt error into the retry taxonomy:
//
//   - VM and interpreter budget exhaustion (vm.ErrBudget, ir.ErrBudget
//     via errors.Is) is permanent — the budget is a property of the
//     (program, config) cell, not of the environment.
//   - Errors carrying Transient() bool (the Transient wrapper, chaos
//     faults) are transient.
//   - Deadline overruns and captured panics are transient: a genuine
//     environmental stall or crash deserves another attempt, and a
//     deterministic one simply exhausts its retries into quarantine.
//   - Everything else (front-end errors, malformed binaries) is
//     permanent.
func Classify(err error) Class {
	if errors.Is(err, vm.ErrBudget) || errors.Is(err, ir.ErrBudget) {
		return ClassPermanent
	}
	var tr interface{ Transient() bool }
	if errors.As(err, &tr) && tr.Transient() {
		return ClassTransient
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTransient
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return ClassTransient
	}
	return ClassPermanent
}

// kindOf maps a terminal attempt error to its quarantine Kind.
func kindOf(err error) Kind {
	var pe *panicError
	if errors.As(err, &pe) {
		return KindPanic
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return KindDeadline
	}
	if Classify(err) == ClassTransient {
		return KindTransient
	}
	return KindPermanent
}

// Transient wraps an error so the classifier retries it. The resilience
// layer itself never invents transient errors outside chaos injection;
// the wrapper exists for callers whose cells touch genuinely flaky
// resources.
func Transient(err error) error { return &transientError{err} }

type transientError struct{ err error }

func (t *transientError) Error() string   { return t.err.Error() }
func (t *transientError) Unwrap() error   { return t.err }
func (t *transientError) Transient() bool { return true }

// panicError is a captured cell panic.
type panicError struct {
	val   any
	pass  string
	stack []byte
}

func (p *panicError) Error() string {
	if p.pass != "" {
		return fmt.Sprintf("panic in pass %s: %v", p.pass, p.val)
	}
	return fmt.Sprintf("panic: %v", p.val)
}

// attributePass scans a panic stack for the innermost frame inside
// internal/passes and returns its function name — the pass-name
// attribution quarantine reports carry. The telemetry damage ledger
// attributes metadata loss the same way (per pass); this is the crash
// counterpart.
func attributePass(stack []byte) string {
	const marker = "debugtuner/internal/passes."
	rest := stack
	for {
		i := bytes.Index(rest, []byte(marker))
		if i < 0 {
			return ""
		}
		rest = rest[i+len(marker):]
		j := bytes.IndexAny(rest, "(\n")
		if j < 0 {
			return ""
		}
		name := string(rest[:j])
		// Skip closures' type prefixes like "glob..func1".
		if name != "" {
			return name
		}
	}
}

// HashBytes returns the FNV-1a hash of b — the subject-hash half of a
// cell key. Callers combine it with Config.Fingerprint to address a
// cell stably across processes.
func HashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// HashString mixes the parts into one FNV-1a hash with NUL separators,
// so ("ab","c") and ("a","bc") differ. Campaign drivers use it to
// fingerprint their parameter set into stable cell-key suffixes.
func HashString(parts ...string) uint64 {
	return hashParts(0, parts...)
}

// hashParts mixes a seed and strings into one FNV-1a hash, the basis of
// every deterministic decision (chaos schedule, backoff jitter).
func hashParts(seed uint64, parts ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return h.Sum64()
}
