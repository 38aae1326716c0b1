// Package gen makes the serve workload's inputs: seeded /v1/tune
// request bodies over MiniC units from the benchmark's own generator.
// Nothing here comes from the program under test, so a parent commit and
// its change receive byte-identical requests for the same seed.
//
// Units vary in helper-function count, loop nesting and array use. Every
// loop runs a constant trip count and helpers call no functions, so
// every unit terminates well inside tunerd's VM step budget. A loop
// nest's total trip count stays within a narrow band whatever its depth,
// so a run's cost depends little on which shapes its seed drew.
package gen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
)

// Unit and Request mirror the v1 wire format field for field; the
// benchmark spells them out rather than import the program's api
// package, so a refactor of that package cannot change what is sent.
type Unit struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Request is one /v1/tune body.
type Request struct {
	V       int    `json:"v"`
	Profile string `json:"profile"`
	Level   string `json:"level"`
	Units   []Unit `json:"units"`
}

// combos are the (profile, level) pairs a request may ask for; -O0 is
// left out because it has no passes to rank.
var combos = [][2]string{
	{"gcc", "Og"}, {"gcc", "O1"}, {"gcc", "O2"}, {"gcc", "O3"},
	{"clang", "O1"}, {"clang", "O2"}, {"clang", "O3"},
}

// maxHelpers bounds a unit's helper functions.
const maxHelpers = 4

// block is the stratum the draws are balanced over: every block of
// requests holds each (profile, level, helper count) once, in a seeded
// order, so two seeds differ in which unit meets which level but not in
// the mix. A run's cost then varies little with the seed.
var block = len(combos) * maxHelpers

// Requests returns the first n requests of the seed's stream. Request i
// depends only on (seed, i), so a longer run repeats a shorter run's
// requests as its prefix.
func Requests(seed int64, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		order := rand.New(rand.NewSource(-1 - seed*1_000_003 - int64(i/block))).Perm(block)
		k := order[i%block]
		combo, helpers := combos[k%len(combos)], 1+k/len(combos)
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		out[i] = Request{
			V:       1,
			Profile: combo[0],
			Level:   combo[1],
			Units: []Unit{{
				Name:   fmt.Sprintf("s%d_r%d", seed, i),
				Source: Source(r, helpers),
			}},
		}
	}
	return out
}

// Bodies renders requests as JSON bodies.
func Bodies(reqs []Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, rq := range reqs {
		b, err := json.Marshal(rq)
		if err != nil {
			panic(err) // plain structs of strings and ints always marshal
		}
		out[i] = b
	}
	return out
}

// src builds one unit's source text.
type src struct {
	r      *rand.Rand
	b      strings.Builder
	arrays []int // sizes of the global arrays t0, t1, ...
	depth  int   // current indentation
}

// Source renders one MiniC unit with the given number of helper
// functions, its other shape drawn from r.
func Source(r *rand.Rand, helpers int) string {
	g := &src{r: r}
	for i, n := 0, r.Intn(3); i < n; i++ {
		size := 8 << r.Intn(3) // 8, 16 or 32: powers of two for & masks
		g.arrays = append(g.arrays, size)
		g.line("var t%d: int[] = new int[%d];", i, size)
	}
	g.line("var g0: int = %d;", 1+r.Intn(97))
	g.line("")
	for f := 0; f < helpers; f++ {
		g.helper(f)
	}
	g.line("func main() {")
	g.depth++
	g.line("var acc: int = %d;", r.Intn(50))
	g.loops(1+r.Intn(2), 4, []string{"acc"}, func(vars []string) {
		callee := g.r.Intn(helpers)
		g.line("acc = (acc + f%d(%s, %s)) & 65535;", callee, g.pick(vars), g.pick(vars))
	})
	g.line("g0 = g0 + acc;")
	g.line("print(acc);")
	g.line("print(g0);")
	g.depth--
	g.line("}")
	return g.b.String()
}

func (g *src) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.depth))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *src) pick(vars []string) string { return vars[g.r.Intn(len(vars))] }

// expr is a small arithmetic expression over vars and constants.
func (g *src) expr(vars []string, depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(3) == 0 {
			return fmt.Sprint(g.r.Intn(100))
		}
		return g.pick(vars)
	}
	ops := []string{"+", "-", "*", "^", "&", "|"}
	return fmt.Sprintf("(%s %s %s)", g.expr(vars, depth-1),
		ops[g.r.Intn(len(ops))], g.expr(vars, depth-1))
}

// helper emits func f<k>(a, b): a loop nest of 8 to 16 iterations
// that mixes its arguments through the global arrays.
func (g *src) helper(k int) {
	g.line("func f%d(a: int, b: int): int {", k)
	g.depth++
	g.line("var x: int = %s;", g.expr([]string{"a", "b"}, 2))
	vars := []string{"a", "b", "x"}
	g.loops(1+g.r.Intn(2), 8, vars, func(vs []string) {
		g.body(vs)
	})
	g.line("return x & 65535;")
	g.depth--
	g.line("}")
	g.line("")
}

// body emits two to four statements updating x inside a loop.
func (g *src) body(vars []string) {
	for i, n := 0, 2+g.r.Intn(3); i < n; i++ {
		switch c := g.r.Intn(4); {
		case c == 0 && len(g.arrays) > 0:
			t := g.r.Intn(len(g.arrays))
			g.line("t%d[(%s) & %d] = x ^ %s;", t, g.expr(vars, 1), g.arrays[t]-1, g.pick(vars))
		case c == 1 && len(g.arrays) > 0:
			t := g.r.Intn(len(g.arrays))
			g.line("x = (x + t%d[(%s) & %d]) & 65535;", t, g.expr(vars, 1), g.arrays[t]-1)
		case c == 2:
			g.line("if (%s > %s) {", g.expr(vars, 1), g.expr(vars, 1))
			g.depth++
			g.line("x = (x + %s) & 65535;", g.expr(vars, 2))
			g.depth--
			g.line("} else {")
			g.depth++
			g.line("x = x ^ %s;", g.expr(vars, 1))
			g.depth--
			g.line("}")
		default:
			g.line("x = (%s) & 65535;", g.expr(vars, 2))
		}
	}
}

// loops emits n nested counted loops whose trip counts multiply to
// between total and 2*total, and calls inner with the loop variables in
// scope.
func (g *src) loops(n, total int, vars []string, inner func(vars []string)) {
	if n == 0 {
		inner(vars)
		return
	}
	// Each level takes the n-th root of the remaining total, rounded up
	// to at least 2, with a little seeded jitter.
	trips := 2
	for t := 2; pow(t, n) <= total; t++ {
		trips = t
	}
	trips += g.r.Intn(2)
	iv := fmt.Sprintf("i%d", len(vars))
	g.line("for (var %s: int = 0; %s < %d; %s = %s + 1) {", iv, iv, trips, iv, iv)
	g.depth++
	g.loops(n-1, max(1, (total+trips-1)/trips), append(append([]string(nil), vars...), iv), inner)
	g.depth--
	g.line("}")
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}
