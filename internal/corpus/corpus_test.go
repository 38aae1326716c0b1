package corpus

import (
	"reflect"
	"testing"

	"debugtuner/internal/pipeline"
)

// target is a branchy harness whose coverage depends on input content.
const targetSrc = `
func fuzz_t(input: int[], n: int) {
	var magic: int = 0;
	if (n > 0 && input[0] == 'A') {
		magic = magic + 1;
		if (n > 1 && input[1] == 'B') {
			magic = magic + 1;
			if (n > 2 && input[2] == 'C') {
				magic = magic + 1;
			}
		}
	}
	var loops: int = 0;
	for (var i: int = 0; i < n && i < 32; i = i + 1) {
		if (input[i] % 2 == 0) {
			loops = loops + 1;
		}
	}
	print(magic);
	print(loops);
}
`

func buildTarget(t *testing.T) *Fuzzer {
	t.Helper()
	bin, _, err := pipeline.CompileSource("t.mc", []byte(targetSrc),
		pipeline.MustConfig(pipeline.GCC, "O0"))
	if err != nil {
		t.Fatal(err)
	}
	return &Fuzzer{Bin: bin, Harness: "fuzz_t", Seed: 1, Execs: 800, StepBudget: 1 << 18}
}

func TestFuzzerFindsCoverage(t *testing.T) {
	fz := buildTarget(t)
	c := fz.Run()
	if len(c.Entries) < 3 {
		t.Fatalf("queue has only %d entries", len(c.Entries))
	}
	if len(c.TotalEdges) < 8 {
		t.Fatalf("only %d edges covered", len(c.TotalEdges))
	}
	// Every entry carries a coverage signature.
	for i, e := range c.Entries {
		if len(e.Edges) == 0 && len(e.Input) > 0 {
			t.Errorf("entry %d has no edges", i)
		}
	}
}

func TestFuzzerDeterministic(t *testing.T) {
	c1 := buildTarget(t).Run()
	c2 := buildTarget(t).Run()
	if len(c1.Entries) != len(c2.Entries) {
		t.Fatalf("queue sizes differ: %d vs %d", len(c1.Entries), len(c2.Entries))
	}
	for i := range c1.Entries {
		if !reflect.DeepEqual(c1.Entries[i].Input, c2.Entries[i].Input) {
			t.Fatalf("entry %d differs between runs", i)
		}
	}
}

func TestCMinPreservesCoverage(t *testing.T) {
	c := buildTarget(t).Run()
	kept := CMin(c)
	if len(kept) == 0 || len(kept) > len(c.Entries) {
		t.Fatalf("cmin kept %d of %d", len(kept), len(c.Entries))
	}
	covered := map[uint64]bool{}
	for _, i := range kept {
		for e := range c.Entries[i].Edges {
			covered[e] = true
		}
	}
	for e := range c.TotalEdges {
		if !covered[e] {
			t.Fatal("cmin lost an edge")
		}
	}
}

// TestCMinDeterministicAcrossRuns: minimization over an independently
// regrown corpus must keep the same entries — CMin's greedy order may
// not leak map iteration order, or every downstream Table III number
// (and the hunt corpus built on it) goes nondeterministic.
func TestCMinDeterministicAcrossRuns(t *testing.T) {
	kept1 := CMin(buildTarget(t).Run())
	for round := 0; round < 3; round++ {
		kept2 := CMin(buildTarget(t).Run())
		if !reflect.DeepEqual(kept1, kept2) {
			t.Fatalf("cmin kept %v on one run, %v on another", kept1, kept2)
		}
	}
}

func TestBuckets(t *testing.T) {
	cases := map[int64]uint64{
		0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 16: 5, 31: 5,
		32: 6, 127: 6, 128: 7, 100000: 7,
	}
	for n, want := range cases {
		if got := bucket(n); got != want {
			t.Errorf("bucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMutateBounded(t *testing.T) {
	fz := buildTarget(t)
	c := fz.Run()
	for _, e := range c.Entries {
		if len(e.Input) > 128 {
			t.Fatalf("input of length %d exceeds MaxLen", len(e.Input))
		}
		for _, b := range e.Input {
			if b < 0 || b > 255 {
				t.Fatalf("non-byte input value %d", b)
			}
		}
	}
}
