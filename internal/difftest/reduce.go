package difftest

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
)

// Budget bounds one reduction. The zero value is unbounded, matching
// the historical Reduce behavior; the hunt campaign always sets
// MaxProbes so a pathological witness can never hang a run.
type Budget struct {
	// MaxProbes caps predicate evaluations (0 = unlimited).
	MaxProbes int
	// MaxWall caps wall-clock (0 = unlimited). Wall budgets make the
	// reduction outcome timing-dependent, so deterministic campaigns use
	// MaxProbes and leave this for interactive use.
	MaxWall time.Duration
}

// Reduce shrinks a failing MiniC source with line-granular delta
// debugging (Zeller's ddmin over complements): it repeatedly removes
// chunks of lines while the failure predicate still holds, then retries
// single lines until the result is 1-minimal — removing any one
// remaining line either fixes the failure or breaks compilation (the
// predicate is expected to return false for sources that do not
// front-end). A final pair-elimination pass removes two lines at a time,
// which 1-minimality cannot reach but brace-delimited code needs (an
// empty function body leaves "header {" and "}" lines that only vanish
// together). The input source is returned unchanged when it does not
// satisfy the predicate.
func Reduce(src []byte, fails func(src []byte) bool) []byte {
	return ReduceWith(src, fails, Budget{})
}

// ReduceWith is Reduce under a budget: once the probe or wall limit is
// reached every further probe reports false, so the algorithm unwinds
// and returns the best (smallest) failing source found so far instead
// of hanging on a stalling or slow-diverging mutant.
func ReduceWith(src []byte, fails func(src []byte) bool, budget Budget) []byte {
	p := &prober{fails: fails, left: -1}
	if budget.MaxProbes > 0 {
		p.left = budget.MaxProbes
	}
	if budget.MaxWall > 0 {
		p.deadline = time.Now().Add(budget.MaxWall)
	}
	if !p.probe(src) {
		return src
	}
	lines := strings.Split(strings.TrimRight(string(src), "\n"), "\n")
	join := func(ls []string) []byte {
		return []byte(strings.Join(ls, "\n") + "\n")
	}
	n := 2
	for len(lines) >= 2 && n <= len(lines) {
		chunk := (len(lines) + n - 1) / n
		reduced := false
		for i := 0; i < len(lines); i += chunk {
			end := i + chunk
			if end > len(lines) {
				end = len(lines)
			}
			cand := make([]string, 0, len(lines)-(end-i))
			cand = append(cand, lines[:i]...)
			cand = append(cand, lines[end:]...)
			if len(cand) == 0 {
				continue
			}
			if p.probe(join(cand)) {
				lines = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(lines) {
				break
			}
			n *= 2
			if n > len(lines) {
				n = len(lines)
			}
		}
	}
	// Pair elimination: retry until no two-line removal still fails.
	for {
		reduced := false
	pairs:
		for i := 0; i < len(lines)-1 && len(lines) > 2; i++ {
			for j := i + 1; j < len(lines); j++ {
				cand := make([]string, 0, len(lines)-2)
				cand = append(cand, lines[:i]...)
				cand = append(cand, lines[i+1:j]...)
				cand = append(cand, lines[j+1:]...)
				if p.probe(join(cand)) {
					lines = cand
					reduced = true
					break pairs
				}
			}
		}
		if !reduced {
			break
		}
	}
	return join(lines)
}

// prober wraps the failure predicate with the budget: past the limit it
// answers false without calling the predicate, which the ddmin loops
// read as "no further reduction" and terminate with the best-so-far.
type prober struct {
	fails     func([]byte) bool
	left      int // remaining probes, -1 = unlimited
	deadline  time.Time
	exhausted bool
}

func (p *prober) probe(src []byte) bool {
	if p.exhausted {
		return false
	}
	if p.left == 0 || (!p.deadline.IsZero() && time.Now().After(p.deadline)) {
		p.exhausted = true
		return false
	}
	if p.left > 0 {
		p.left--
	}
	return p.fails(src)
}

// FailsUnder builds a reduction predicate: the source still front-ends
// and the oracle still reports at least one finding for the
// configuration (behavior mismatch, reference divergence, or invariant
// violation). Sources that no longer compile do not "fail" — the
// reducer must not escape into syntax errors.
func FailsUnder(cfg pipeline.Config) func(src []byte) bool {
	return FailsUnderTimeout(cfg, 0)
}

// FailsUnderTimeout is FailsUnder with each probe run as a cell under a
// private resilience executor with the given deadline: a candidate whose
// build or execution stalls is abandoned after timeout and counted as
// not-failing, so ddmin keeps making progress instead of hanging on one
// probe. A timeout of 0 runs the probe directly.
func FailsUnderTimeout(cfg pipeline.Config, timeout time.Duration) func(src []byte) bool {
	var ex *resilience.Executor
	if timeout > 0 {
		pol := resilience.DefaultPolicy()
		pol.Retries = 0
		pol.CellTimeout = timeout
		ex = resilience.NewExecutor(pol)
	}
	return func(src []byte) bool {
		probe := func(context.Context) (bool, error) {
			o := NewOracle(nil)
			findings, err := o.DiffOne(SourceSubject("reduce", src), cfg)
			return err == nil && len(findings) > 0, nil
		}
		if ex == nil {
			v, _ := probe(context.Background())
			return v
		}
		key := fmt.Sprintf("reduce|%016x|%s", resilience.HashBytes(src), configLabel(cfg))
		v, err := resilience.Run(ex, context.Background(), key, probe)
		return err == nil && v
	}
}

// WriteFixture stores a reduced reproducer under dir, named after the
// subject and the configuration that exposed it, with a header comment
// recording the finding. Returns the written path.
func WriteFixture(dir string, f Finding, reduced []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, FixtureName(f.Subject, f.Config))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "// difftest reproducer: %s\n// finding: [%s] %s\n",
		f.Subject, f.Kind, f.Detail)
	buf.Write(reduced)
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// FixtureName derives the fixture filename from the subject and config
// label. Sanitizing is lossy — "gcc-O2!licm" and "gcc-O2@licm" collapse
// to one name — so whenever sanitizing changed either part, a short hash
// of the raw pair is appended; distinct labels can then never silently
// overwrite each other's fixtures, while already-clean names keep their
// historical spelling.
func FixtureName(subject, label string) string {
	ss, sl := sanitizeLabel(subject), sanitizeLabel(label)
	name := ss + "-" + sl
	if ss != subject || sl != label {
		h := resilience.HashBytes([]byte(subject + "\x00" + label))
		name += fmt.Sprintf("-%08x", uint32(h))
	}
	return name + ".mc"
}

// sanitizeLabel maps a config label to a filename-safe form.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, label)
}
