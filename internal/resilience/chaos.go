package resilience

import (
	"fmt"
	"strconv"
	"strings"
)

// FaultKind is one injected failure mode.
type FaultKind int

const (
	// FaultNone: the cell runs untouched.
	FaultNone FaultKind = iota
	// FaultError: the cell fails with an injected error.
	FaultError
	// FaultPanic: the cell panics.
	FaultPanic
)

// Chaos is the deterministic fault injector. Whether and how a cell is
// faulted depends only on (Seed, cell key) — never on timing,
// scheduling, or worker count — so two runs with the same seed produce
// byte-identical quarantine reports at any -j. A faulted cell panics or
// returns an error, chosen by a second hash, and quarantines either way.
type Chaos struct {
	// Rate is the fraction of cells faulted, in [0, 1].
	Rate float64
	// Seed drives every injection decision.
	Seed uint64
}

// ParseChaos parses a -chaos flag spec of the form "rate=0.05,seed=7".
func ParseChaos(spec string) (*Chaos, error) {
	c := &Chaos{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("resilience: bad chaos item %q (want key=value)", item)
		}
		switch k {
		case "rate":
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("resilience: bad chaos rate %q (want [0,1])", v)
			}
			c.Rate = r
		case "seed":
			s, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: bad chaos seed %q", v)
			}
			c.Seed = s
		default:
			return nil, fmt.Errorf("resilience: unknown chaos key %q (have rate, seed)", k)
		}
	}
	if c.Rate == 0 {
		return nil, fmt.Errorf("resilience: chaos spec %q sets no rate", spec)
	}
	return c, nil
}

func (c *Chaos) String() string {
	return fmt.Sprintf("rate=%g,seed=%d", c.Rate, c.Seed)
}

// Decide returns the fault to inject into one cell; a nil Chaos
// injects none.
func (c *Chaos) Decide(key string) FaultKind {
	if c == nil || c.Rate <= 0 {
		return FaultNone
	}
	const den = 1 << 20
	h := avalanche(hashParts(c.Seed, "cell", key))
	if float64(h%den)/den >= c.Rate {
		return FaultNone
	}
	if avalanche(hashParts(c.Seed, "kind", key))%2 == 0 {
		return FaultPanic
	}
	return FaultError
}

// avalanche is murmur3's 64-bit finalizer. FNV-1a's low bits barely
// depend on a key's last byte, so keys differing only there would share
// a decision; after the finalizer every input bit reaches every output
// bit.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb3f99e1b1a85
	h ^= h >> 33
	return h
}
