package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
)

// Kind labels how a quarantined cell failed.
type Kind string

const (
	// KindPanic: the cell panicked (captured, not fatal).
	KindPanic Kind = "panic"
	// KindError: the cell returned an error (budget exhaustion, a
	// build or trace failure, an inner quarantine).
	KindError Kind = "error"
)

// CellError is the typed error of a quarantined cell. It implements
// Uncacheable so content-addressed caches (evalcache) evict it instead
// of memoizing the failure, and a rerun recomputes the cell.
type CellError struct {
	// Key is the cell's key (config fingerprint × subject hash).
	Key string
	// Kind is how the cell failed.
	Kind Kind
	// Pass is the optimization pass attributed from the panicking
	// goroutine's stack, when the failure originated inside one.
	Pass string
	// Err is the cell's underlying error.
	Err error
}

func (e *CellError) Error() string {
	s := fmt.Sprintf("cell %s quarantined: %s: %v", e.Key, e.Kind, e.Err)
	if e.Pass != "" {
		s += fmt.Sprintf(" [pass %s]", e.Pass)
	}
	return s
}

func (e *CellError) Unwrap() error { return e.Err }

// Uncacheable marks quarantined results as not-memoizable: a cache
// that stored them would pin the gap for the life of the process (or,
// on disk, for every rerun), while a rerun without the fault — a clean
// run after a chaos run — must measure the cell.
func (e *CellError) Uncacheable() bool { return true }

// IsQuarantined reports whether err is (or wraps) a CellError.
func IsQuarantined(err error) bool {
	var ce *CellError
	return errors.As(err, &ce)
}

// panicError is a captured cell panic.
type panicError struct {
	val  any
	pass string
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
// the deterministic chaos schedule.
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
