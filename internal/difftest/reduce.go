package difftest

import (
	"fmt"
	"strings"

	"debugtuner/internal/resilience"
)

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
//
// maxProbes caps the predicate evaluations (0 = unbounded): once it is
// reached every further probe reports false, so the algorithm unwinds
// and returns the best (smallest) failing source found so far. A probe
// cap, unlike a wall-clock one, keeps the outcome deterministic.
func Reduce(src []byte, fails func(src []byte) bool, maxProbes int) []byte {
	p := &prober{fails: fails, left: -1}
	if maxProbes > 0 {
		p.left = maxProbes
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

// prober wraps the failure predicate with the probe cap: past the
// limit it answers false without calling the predicate, which the ddmin
// loops read as "no further reduction" and terminate with the
// best-so-far.
type prober struct {
	fails func([]byte) bool
	left  int // remaining probes, -1 = unlimited
}

func (p *prober) probe(src []byte) bool {
	if p.left == 0 {
		return false
	}
	if p.left > 0 {
		p.left--
	}
	return p.fails(src)
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
