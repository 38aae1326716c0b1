package codegen

import (
	"reflect"
	"testing"

	"debugtuner/internal/debuginfo"
	"debugtuner/internal/ir"
	"debugtuner/internal/irbuild"
	"debugtuner/internal/parser"
	"debugtuner/internal/passes"
	"debugtuner/internal/sema"
	"debugtuner/internal/vm"
)

// lower compiles MiniC source through optional passes into a binary.
func lower(t *testing.T, src string, opts Options, passNames ...string) (*vm.Binary, []int64) {
	t.Helper()
	prog, err := parser.ParseString("t", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irbuild.Build(info)
	if err != nil {
		t.Fatal(err)
	}
	it := ir.NewInterp(p, 1<<24)
	if _, err := it.Call("main"); err != nil {
		t.Fatal(err)
	}
	want := it.Output()
	work := p.Clone()
	ctx := &passes.Context{Prog: work, Salvage: true, InlineSmall: true, InlineBudget: 60}
	for _, n := range passNames {
		passes.Lookup(n).Run(ctx)
	}
	return Compile(work, opts), want
}

func runBin(t *testing.T, bin *vm.Binary) []int64 {
	t.Helper()
	m := vm.New(bin)
	m.StepBudget = 1 << 24
	if _, err := m.Call("main"); err != nil {
		t.Fatal(err)
	}
	return m.Output()
}

const cgSrc = `
var table: int[] = new int[16];
func load(i: int): int { return table[i & 15]; }
func main() {
	for (var i: int = 0; i < 16; i = i + 1) {
		table[i] = i * i + 3;
	}
	var acc: int = 0;
	for (var i: int = 0; i < 16; i = i + 1) {
		if (load(i) % 3 == 0) {
			acc = acc + load(i);
		} else {
			acc = acc - 1;
		}
	}
	print(acc);
}`

// TestEveryOptionCombination runs all 2^k back-end option subsets over
// the same optimized IR and checks behavioral equivalence — the back-end
// passes must compose in any combination.
func TestEveryOptionCombination(t *testing.T) {
	mids := []string{"sroa", "simplifycfg", "instcombine", "gvn", "dce",
		"guess-branch-probability"}
	toggles := []func(*Options){
		func(o *Options) { o.TER = true },
		func(o *Options) { o.MachineSink = true },
		func(o *Options) { o.Schedule = true },
		func(o *Options) { o.Layout = true },
		func(o *Options) { o.CrossJump = true },
		func(o *Options) { o.ShrinkWrap = true },
		func(o *Options) { o.ShareSpillSlots = true },
		func(o *Options) { o.CoalesceVars = true },
	}
	var want []int64
	for mask := 0; mask < 1<<len(toggles); mask++ {
		var opts Options
		for i, f := range toggles {
			if mask&(1<<i) != 0 {
				f(&opts)
			}
		}
		bin, w := lower(t, cgSrc, opts, mids...)
		if want == nil {
			want = w
		}
		got := runBin(t, bin)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("option mask %08b: got %v want %v", mask, got, want)
		}
	}
}

// TestCrossJumpMergesTails: identical suffixes across blocks shrink the
// binary.
func TestCrossJumpMergesTails(t *testing.T) {
	src := `
var g: int = 0;
func main() {
	var x: int = 9;
	if (x > 5) {
		g = g + 1;
		g = g * 3;
		print(g);
	} else {
		g = g - 1;
		g = g * 3;
		print(g);
	}
	print(x);
}`
	plain, want := lower(t, src, Options{}, "sroa", "simplifycfg")
	xj, _ := lower(t, src, Options{CrossJump: true}, "sroa", "simplifycfg")
	if got := runBin(t, xj); !reflect.DeepEqual(got, want) {
		t.Fatalf("crossjump broke semantics: %v vs %v", got, want)
	}
	if len(xj.Code) >= len(plain.Code) {
		t.Errorf("crossjump did not shrink code: %d vs %d", len(xj.Code), len(plain.Code))
	}
}

// TestShrinkWrapMovesPrologue: with an early exit, the prologue must not
// sit at the entry.
func TestShrinkWrapMovesPrologue(t *testing.T) {
	src := `
func work(n: int): int {
	if (n <= 0) { return 0; }
	var a: int = n * 3;
	var b: int = a + n;
	var c: int = b * a;
	var d: int = c - b;
	var e: int = d ^ a;
	var f0: int = e + c;
	var g0: int = f0 * 2;
	var h0: int = g0 - e;
	var i0: int = h0 + d;
	var j0: int = i0 * f0;
	var k0: int = j0 - g0;
	var l0: int = k0 + h0;
	return a + b + c + d + e + f0 + g0 + h0 + i0 + j0 + k0 + l0;
}
func main() {
	print(work(0));
	print(work(7));
}`
	// After promotion the frame is needed only for spills: the prologue
	// must either disappear (no frame at all) or move off the entry,
	// while the non-shrink-wrapped build keeps it at the entry.
	sw, want := lower(t, src, Options{ShrinkWrap: true}, "sroa", "simplifycfg")
	if got := runBin(t, sw); !reflect.DeepEqual(got, want) {
		t.Fatalf("shrink-wrap broke semantics")
	}
	plain, _ := lower(t, src, Options{}, "sroa", "simplifycfg")
	pe := func(bin *vm.Binary) (start, end uint32) {
		table, err := debuginfo.Decode(bin.Debug)
		if err != nil {
			t.Fatal(err)
		}
		for i := range table.Funcs {
			if table.Funcs[i].Name == "work" {
				return table.Funcs[i].Start, table.Funcs[i].PrologueEnd
			}
		}
		t.Fatal("work not found")
		return
	}
	ps, ppe := pe(plain)
	if ppe != ps+1 {
		t.Fatalf("plain build prologue not at entry: start=%d end=%d", ps, ppe)
	}
	ss, spe := pe(sw)
	if spe == ss+1 {
		t.Errorf("shrink-wrap left the prologue at the entry (start=%d end=%d)", ss, spe)
	}
}

// TestDebugSectionAddressesInBounds validates emitted tables for a range
// of option sets.
func TestDebugSectionAddressesInBounds(t *testing.T) {
	for _, opts := range []Options{
		{}, {TER: true, Layout: true, CrossJump: true, Schedule: true},
		{OptimisticRanges: true, ShareSpillSlots: true, ShrinkWrap: true},
	} {
		bin, _ := lower(t, cgSrc, opts, "sroa", "simplifycfg", "instcombine", "dce")
		table, err := debuginfo.Decode(bin.Debug)
		if err != nil {
			t.Fatal(err)
		}
		n := uint32(len(bin.Code))
		for _, e := range table.Lines {
			if e.Addr >= n {
				t.Fatalf("line row addr %d out of code (%d)", e.Addr, n)
			}
		}
		for _, v := range table.Vars {
			for _, e := range v.Entries {
				if e.End > n || e.Start > e.End {
					t.Fatalf("var %s entry [%d,%d) out of code (%d)",
						v.Name, e.Start, e.End, n)
				}
			}
		}
	}
}

// TestOptimisticVsPreciseRanges: the gcc policy must produce location
// coverage at least as wide as the precise policy.
func TestOptimisticVsPreciseRanges(t *testing.T) {
	span := func(optimistic bool) (total uint32) {
		bin, _ := lower(t, cgSrc, Options{OptimisticRanges: optimistic},
			"sroa", "simplifycfg", "instcombine", "gvn", "dce")
		table, err := debuginfo.Decode(bin.Debug)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range table.Vars {
			for _, e := range v.Entries {
				if e.Kind == debuginfo.LocReg {
					total += e.End - e.Start
				}
			}
		}
		return
	}
	if span(true) < span(false) {
		t.Fatalf("optimistic register coverage (%d) below precise (%d)",
			span(true), span(false))
	}
}

// TestCoalesceHintChainInVRegOrder: for the moves b←a, c←b, d←c the
// chained hints must send a to the far end of the chain, d. Walking the
// chains in map order collapsed a's hint to c or d depending on which
// vreg was visited first.
func TestCoalesceHintChainInVRegOrder(t *testing.T) {
	const a, b, c, d = 0, 1, 2, 3
	// Each move hints its two ends at each other, later moves
	// overwriting: a→b, b→c, c→d, d→c.
	hint := []int{b, c, d, c}
	chainHints(hint)
	if hint[a] != d {
		t.Fatalf("a's hint = %d, want %d (hints %v)", hint[a], d, hint)
	}
	if want := []int{d, d, d, c}; !reflect.DeepEqual(hint, want) {
		t.Fatalf("hints %v, want %v", hint, want)
	}
	// A vreg without a move partner keeps no hint; a two-cycle stays.
	hint = []int{-1, 2, 1}
	chainHints(hint)
	if want := []int{-1, 2, 1}; !reflect.DeepEqual(hint, want) {
		t.Fatalf("hints %v, want %v", hint, want)
	}
}
