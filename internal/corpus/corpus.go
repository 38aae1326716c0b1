// Package corpus grows and minimizes fuzzing corpora, standing in for
// OSS-Fuzz (§IV): a coverage-guided mutational fuzzer over the VM's edge
// coverage produces the "queue" of inputs, an afl-cmin-style pass
// shrinks it to a coverage-equivalent subset, and statistics mirror the
// paper's Table III columns.
//
// Everything is deterministic: the fuzzer's PRNG is seeded per harness,
// so corpora — and therefore every downstream metric — are reproducible.
package corpus

import (
	"math/rand"
	"sort"

	"debugtuner/internal/vm"
)

// Fuzzer grows a corpus for one harness of one binary.
type Fuzzer struct {
	Bin     *vm.Binary
	Harness string
	Seed    int64
	// Execs bounds the number of executions.
	Execs int
	// MaxLen bounds input length.
	MaxLen int
	// StepBudget bounds a single execution.
	StepBudget int64
}

// Entry is one corpus member with its coverage signature.
type Entry struct {
	Input []int64
	// Edges is the set of control-flow edges the input exercises.
	Edges map[uint64]bool
	// Sig is the afl-style (edge, hit-count bucket) signature; inputs
	// that differ only in edge frequencies still enter the queue — the
	// redundancy the paper's minimization pipeline removes (§IV).
	Sig map[uint64]bool
}

// Corpus is the grown queue.
type Corpus struct {
	Entries []Entry
	// TotalEdges is the union edge coverage of the queue.
	TotalEdges map[uint64]bool
	// seenSig is the union of (edge, bucket) signatures.
	seenSig map[uint64]bool
}

// bucket classifies a hit count the way AFL does.
func bucket(n int64) uint64 {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n == 3:
		return 2
	case n <= 7:
		return 3
	case n <= 15:
		return 4
	case n <= 31:
		return 5
	case n <= 127:
		return 6
	}
	return 7
}

// run executes one input and returns its edge set and bucketed
// signature.
func (f *Fuzzer) run(input []int64) (map[uint64]bool, map[uint64]bool) {
	m := vm.New(f.Bin)
	m.StepBudget = f.StepBudget
	m.EnableCoverage()
	h := m.NewArray(input)
	// Execution errors (budget) still yield partial coverage.
	_, _ = m.Call(f.Harness, h, int64(len(input)))
	edges := make(map[uint64]bool, len(m.CovEdges))
	sig := make(map[uint64]bool, len(m.CovEdges))
	for e, n := range m.CovEdges {
		edges[e] = true
		sig[e*8+bucket(n)] = true
	}
	return edges, sig
}

// Run grows the corpus: random seeds plus mutation of coverage-adding
// inputs, keeping any input that reaches a new edge.
func (f *Fuzzer) Run() *Corpus {
	if f.Execs == 0 {
		f.Execs = 2000
	}
	if f.MaxLen == 0 {
		f.MaxLen = 128
	}
	if f.StepBudget == 0 {
		f.StepBudget = 1 << 20
	}
	rng := rand.New(rand.NewSource(f.Seed))
	c := &Corpus{TotalEdges: map[uint64]bool{}, seenSig: map[uint64]bool{}}
	add := func(in []int64, edges, sig map[uint64]bool) bool {
		fresh := false
		for s := range sig {
			if !c.seenSig[s] {
				fresh = true
				break
			}
		}
		if !fresh && len(c.Entries) > 0 {
			return false
		}
		for s := range sig {
			c.seenSig[s] = true
		}
		for e := range edges {
			c.TotalEdges[e] = true
		}
		c.Entries = append(c.Entries, Entry{Input: in, Edges: edges, Sig: sig})
		return true
	}

	// Seed phase: empty, tiny, and a few random inputs.
	seeds := [][]int64{{}, {0}, {255}, randBytes(rng, 16), randBytes(rng, 64)}
	execs := 0
	for _, s := range seeds {
		e, g := f.run(s)
		add(s, e, g)
		execs++
	}
	// Mutation phase.
	for execs < f.Execs {
		var base []int64
		if len(c.Entries) > 0 {
			base = c.Entries[rng.Intn(len(c.Entries))].Input
		}
		in := mutate(rng, base, f.MaxLen)
		e, g := f.run(in)
		add(in, e, g)
		execs++
	}
	return c
}

func randBytes(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(256))
	}
	return out
}

// mutate derives a new input with afl-style mutations: bit flips, byte
// sets, interesting values, block duplication, truncation, extension.
func mutate(rng *rand.Rand, base []int64, maxLen int) []int64 {
	in := append([]int64(nil), base...)
	n := 1 + rng.Intn(4)
	for k := 0; k < n; k++ {
		switch rng.Intn(7) {
		case 0: // bit flip
			if len(in) > 0 {
				i := rng.Intn(len(in))
				in[i] = (in[i] ^ (1 << uint(rng.Intn(8)))) & 255
			}
		case 1: // random byte
			if len(in) > 0 {
				in[rng.Intn(len(in))] = int64(rng.Intn(256))
			}
		case 2: // interesting values
			if len(in) > 0 {
				vals := []int64{0, 1, 2, 4, 8, 16, 32, 64, 127, 128, 255}
				in[rng.Intn(len(in))] = vals[rng.Intn(len(vals))]
			}
		case 3: // extend
			if len(in) < maxLen {
				add := 1 + rng.Intn(16)
				for i := 0; i < add && len(in) < maxLen; i++ {
					in = append(in, int64(rng.Intn(256)))
				}
			}
		case 4: // truncate
			if len(in) > 1 {
				in = in[:1+rng.Intn(len(in)-1)]
			}
		case 5: // duplicate block
			if len(in) > 0 && len(in) < maxLen {
				s := rng.Intn(len(in))
				e := s + 1 + rng.Intn(len(in)-s)
				in = append(in, in[s:e]...)
				if len(in) > maxLen {
					in = in[:maxLen]
				}
			}
		case 6: // arithmetic nudge
			if len(in) > 0 {
				i := rng.Intn(len(in))
				in[i] = (in[i] + int64(rng.Intn(9)-4) + 256) & 255
			}
		}
	}
	return in
}

// CMin is the afl-cmin analog: a greedy coverage-preserving minimization
// that returns the indices of a subset of entries whose union coverage
// equals the full queue's.
func CMin(c *Corpus) []int {
	type cand struct {
		idx  int
		size int
	}
	cands := make([]cand, len(c.Entries))
	for i, e := range c.Entries {
		cands[i] = cand{i, len(e.Edges)}
	}
	// Largest coverage first, like afl-cmin's first approximation.
	sort.SliceStable(cands, func(a, b int) bool {
		return cands[a].size > cands[b].size
	})
	covered := map[uint64]bool{}
	var kept []int
	for _, cd := range cands {
		fresh := false
		for e := range c.Entries[cd.idx].Edges {
			if !covered[e] {
				fresh = true
				break
			}
		}
		if !fresh {
			continue
		}
		for e := range c.Entries[cd.idx].Edges {
			covered[e] = true
		}
		kept = append(kept, cd.idx)
	}
	sort.Ints(kept)
	return kept
}
