package difftest

import (
	"bytes"
	"strings"
	"testing"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
)

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	seen := map[string]int{}
	for _, cfg := range m {
		seen[string(cfg.Profile)+"-"+cfg.Level]++
	}
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, level := range pipeline.Levels(p) {
			want := len(pipeline.EnabledPasses(p, level)) + 1
			if p == pipeline.GCC && level != "Og" {
				want++ // inline-fncs-called-once
			}
			got := seen[string(p)+"-"+level]
			if got != want {
				t.Errorf("%s-%s: %d configs, want %d (level + one per toggle)",
					p, level, got, want)
			}
		}
	}
	// Every config must be unique by fingerprint.
	fps := map[string]bool{}
	for _, cfg := range m {
		fp, ok := cfg.Fingerprint()
		if !ok {
			t.Fatalf("config %s not fingerprintable", cfg.Name())
		}
		if fps[fp] {
			t.Errorf("duplicate config in matrix: %s", fp)
		}
		fps[fp] = true
	}
}

func TestParseMatrix(t *testing.T) {
	levels, err := ParseMatrix("levels")
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 7 { // gcc Og..O3 + clang O1..O3
		t.Fatalf("levels matrix has %d configs, want 7", len(levels))
	}
	one, err := ParseMatrix("gcc-O2")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Profile != pipeline.GCC || one[0].Level != "O2" {
		t.Fatalf("gcc-O2 spec = %v", one)
	}
	star, err := ParseMatrix("clang-O2*")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pipeline.EnabledPasses(pipeline.Clang, "O2")) + 1; len(star) != want {
		t.Fatalf("clang-O2* has %d configs, want %d", len(star), want)
	}
	full, err := ParseMatrix("")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(Matrix()) {
		t.Fatalf("empty spec != full matrix")
	}
	for _, bad := range []string{"gcc", "gcc-O9", "tcc-O2", "gcc-O9*"} {
		if _, err := ParseMatrix(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}

func TestCompareObs(t *testing.T) {
	done := func(out ...int64) Observation { return Observation{Output: out, Rets: []int64{0}} }
	partial := func(out ...int64) Observation { return Observation{Output: out, Budget: true} }
	cases := []struct {
		name     string
		ref, got Observation
		wantDiff bool
	}{
		{"equal", done(1, 2, 3), done(1, 2, 3), false},
		{"value", done(1, 2, 3), done(1, 9, 3), true},
		{"length", done(1, 2, 3), done(1, 2), true},
		{"ret", Observation{Rets: []int64{1}}, Observation{Rets: []int64{2}}, true},
		{"variant hangs, good prefix", done(1, 2, 3), partial(1, 2), true},
		{"variant hangs, bad prefix", done(1, 2, 3), partial(9), true},
		{"ref budget, prefix ok", partial(1, 2), done(1, 2, 3), false},
		{"ref budget, prefix bad", partial(1, 9), done(1, 2, 3), true},
		{"both budget, common prefix", partial(1, 2), partial(1, 2, 3), false},
		{"both budget, diverged", partial(1, 2), partial(1, 9), true},
	}
	for _, c := range cases {
		if d := compareObs(c.ref, c.got); (d != "") != c.wantDiff {
			t.Errorf("%s: compareObs = %q, wantDiff=%v", c.name, d, c.wantDiff)
		}
	}
}

// TestOracleCleanOnSynth is the in-tree slice of the acceptance run:
// a few synth seeds across the full matrix must produce no findings.
func TestOracleCleanOnSynth(t *testing.T) {
	o := NewOracle(Matrix())
	for _, seed := range []int64{1, 2, 3} {
		findings, err := o.CheckSubject(SynthSubject(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range findings {
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

func TestOracleCleanOnSuiteSubject(t *testing.T) {
	s, err := SuiteSubject("zlib", 0)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(mustParse(t, "gcc-O2*,clang-O2*"))
	findings, err := o.CheckSubject(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func mustParse(t *testing.T, spec string) []pipeline.Config {
	t.Helper()
	cfgs, err := ParseMatrix(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// TestRunDeterministicAcrossWorkers locks the -j byte-stability promise.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	opts := Options{
		Seeds:     []int64{11, 12},
		Spec:      "levels",
		Testsuite: []string{"zlib"},
	}
	out := func(jobs int) string {
		old := workerpool.Workers()
		workerpool.SetWorkers(jobs)
		defer workerpool.SetWorkers(old)
		var buf bytes.Buffer
		if _, err := Run(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := out(1), out(4)
	if serial != parallel {
		t.Fatalf("report differs across -j:\n-j1:\n%s\n-j4:\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "PASS") {
		t.Fatalf("expected PASS report, got:\n%s", serial)
	}
}

// buildSmall compiles a small fixed program for invariant tests.
func buildSmall(t *testing.T, cfg pipeline.Config) *vm.Binary {
	t.Helper()
	src := []byte(`
var g: int = 7;
func addmul(a: int, b: int): int {
	var s: int = a + b * g;
	var u: int = s / (b + 1);
	g = g + u;
	return s - u;
}
func main() {
	var acc: int = 0;
	for (var i: int = 0; i < 6; i = i + 1) {
		acc = acc + addmul(i, acc);
	}
	print(acc);
	print(g);
}
`)
	bin, _, err := pipeline.CompileSource("small.mc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// mutateDebug decodes, mutates, and re-encodes a binary's debug section.
func mutateDebug(t *testing.T, bin *vm.Binary, mutate func(*debuginfo.Table)) *vm.Binary {
	t.Helper()
	table, err := debuginfo.Decode(bin.Debug)
	if err != nil {
		t.Fatal(err)
	}
	mutate(table)
	clone := bin.Clone()
	clone.Debug = table.Encode()
	return clone
}

func TestCheckBinaryCleanBuilds(t *testing.T) {
	for _, spec := range []string{"gcc-O0", "gcc-O2", "clang-O3"} {
		profile, level, _ := strings.Cut(spec, "-")
		bin := buildSmall(t, pipeline.MustConfig(pipeline.Profile(profile), level))
		if v := CheckBinary(bin); len(v) > 0 {
			t.Errorf("%s: clean build flagged: %v", spec, v)
		}
	}
}

func TestCheckBinaryFlagsCorruption(t *testing.T) {
	base := buildSmall(t, pipeline.MustConfig(pipeline.GCC, "O2"))
	cases := []struct {
		name   string
		mutate func(*debuginfo.Table)
		want   string
	}{
		{"unsorted line table", func(tb *debuginfo.Table) {
			if len(tb.Lines) < 2 {
				t.Skip("need 2 line rows")
			}
			tb.Lines[0], tb.Lines[1] = tb.Lines[1], tb.Lines[0]
		}, "not strictly increasing"},
		{"negative line", func(tb *debuginfo.Table) {
			tb.Lines[0].Line = -3
		}, "negative line"},
		{"loc outside function", func(tb *debuginfo.Table) {
			v := firstLocal(t, tb)
			v.Entries[0].Start = 0
			v.Entries[0].End = uint32(1 << 20)
		}, "outside function bounds"},
		{"inverted range", func(tb *debuginfo.Table) {
			v := firstLocal(t, tb)
			e := &v.Entries[0]
			e.Start, e.End = e.End+2, e.Start
		}, ""},
		{"register out of machine", func(tb *debuginfo.Table) {
			v := firstLocal(t, tb)
			f := tb.Funcs[v.FuncIdx]
			v.Entries = append(v.Entries, debuginfo.LocEntry{
				Start: f.Start, End: f.Start + 1,
				Kind: debuginfo.LocReg, Operand: 99,
			})
		}, "outside machine"},
		{"unwitnessed register claim", func(tb *debuginfo.Table) {
			// A whole-function register range for a variable the code
			// never tags into that register.
			v := firstLocal(t, tb)
			f := tb.Funcs[v.FuncIdx]
			v.Entries = []debuginfo.LocEntry{{
				Start: f.Start, End: f.End,
				Kind: debuginfo.LocReg, Operand: int64(vm.NumRegs - 1),
			}}
		}, "never tagged"},
		{"overlapping ranges", func(tb *debuginfo.Table) {
			v := firstLocal(t, tb)
			f := tb.Funcs[v.FuncIdx]
			v.Entries = []debuginfo.LocEntry{
				{Start: f.Start, End: f.End, Kind: debuginfo.LocSlot, Operand: 0},
				{Start: f.Start, End: f.Start + 2, Kind: debuginfo.LocConst, Operand: 1},
			}
		}, "overlapping"},
		{"global index out of table", func(tb *debuginfo.Table) {
			g := firstGlobal(t, tb)
			g.Entries[0].Operand = 42
		}, "outside table"},
	}
	for _, c := range cases {
		bin := mutateDebug(t, base, c.mutate)
		violations := CheckBinary(bin)
		if len(violations) == 0 {
			t.Errorf("%s: no violation reported", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(strings.Join(violations, "\n"), c.want) {
			t.Errorf("%s: violations %v do not mention %q", c.name, violations, c.want)
		}
	}
}

func firstLocal(t *testing.T, tb *debuginfo.Table) *debuginfo.Variable {
	t.Helper()
	for i := range tb.Vars {
		if tb.Vars[i].FuncIdx >= 0 && len(tb.Vars[i].Entries) > 0 {
			return &tb.Vars[i]
		}
	}
	t.Skip("no local variable records")
	return nil
}

func firstGlobal(t *testing.T, tb *debuginfo.Table) *debuginfo.Variable {
	t.Helper()
	for i := range tb.Vars {
		if tb.Vars[i].FuncIdx == -1 && len(tb.Vars[i].Entries) > 0 {
			return &tb.Vars[i]
		}
	}
	t.Skip("no global variable records")
	return nil
}

func TestDynamicWithinStatic(t *testing.T) {
	table := &debuginfo.Table{
		Funcs: []debuginfo.FuncDebug{{Name: "f", Start: 0, End: 10}},
		Lines: []debuginfo.LineEntry{{Addr: 0, Line: 1}, {Addr: 4, Line: 2}},
		Vars: []debuginfo.Variable{{
			SymID: 3, Name: "x", FuncIdx: 0,
			Entries: []debuginfo.LocEntry{{Start: 0, End: 2, Kind: debuginfo.LocReg, Operand: 1}},
		}},
	}
	tr := dbgtrace.NewTrace()
	tr.Record(1, []int{3})
	if v := checkDynamicWithinStatic(table, tr); len(v) != 0 {
		t.Fatalf("claimed availability flagged: %v", v)
	}
	// Line 2's break address (4) has no entry for sym 3: a debugger
	// reporting it available there contradicts the static table.
	tr2 := dbgtrace.NewTrace()
	tr2.Record(2, []int{3})
	if v := checkDynamicWithinStatic(table, tr2); len(v) == 0 {
		t.Fatal("statically unclaimed availability not flagged")
	}
}

func TestReduceMinimizes(t *testing.T) {
	src := []byte("a\nb\nc\nd\ne\nf\ng\nh\n")
	fails := func(s []byte) bool {
		str := string(s)
		return strings.Contains(str, "c") && strings.Contains(str, "f")
	}
	got := string(Reduce(src, fails))
	if got != "c\nf\n" {
		t.Fatalf("Reduce = %q, want %q", got, "c\nf\n")
	}
	// A non-failing input comes back unchanged.
	if got := Reduce([]byte("x\ny\n"), fails); string(got) != "x\ny\n" {
		t.Fatalf("non-failing input mutated: %q", got)
	}
}

// TestReduceEndToEnd drives the reducer with a real oracle predicate: a
// program with a print that differs under an (artificial) predicate
// shrinks to the lines that matter. The predicate stands in for a
// compiler bug: it reports failure while the program still prints a
// negative number at gcc-O2.
func TestReduceEndToEnd(t *testing.T) {
	src := []byte(`var g: int = 5;
func helper(a: int): int {
	return a * 2;
}
func main() {
	var x: int = helper(g);
	var y: int = x + 1;
	print(y);
	print(0 - 42);
	print(x);
}
`)
	cfg := pipeline.MustConfig(pipeline.GCC, "O2")
	fails := func(s []byte) bool {
		o := NewOracle(nil)
		obsS := SourceSubject("r", s)
		if _, _, err := obsS.frontend(); err != nil {
			return false
		}
		res, err := o.observe(obsS, cfg)
		if err != nil {
			return false
		}
		for _, v := range res.Obs.Output {
			if v < 0 {
				return true
			}
		}
		return false
	}
	red := Reduce(src, fails)
	if !fails(red) {
		t.Fatal("reduced program no longer fails")
	}
	if lines := strings.Count(string(red), "\n"); lines > 3 {
		t.Fatalf("reduction too weak (%d lines):\n%s", lines, red)
	}
	if !strings.Contains(string(red), "print(0 - 42);") {
		t.Fatalf("culprit line dropped:\n%s", red)
	}
}

// TestRunChaosQuarantine drives a tiny matrix under a chaotic resilience
// executor and checks that quarantined cells surface as explicit QUAR
// findings — deterministically across worker counts — instead of killing
// the run.
func TestRunChaosQuarantine(t *testing.T) {
	opts := Options{Seeds: []int64{21, 22, 23}, Spec: "levels"}
	out := func(jobs int) (string, *Report) {
		prev := resilience.Install(resilience.NewExecutor(&resilience.Chaos{Rate: 0.4, Seed: 6}))
		defer resilience.Install(prev)
		old := workerpool.Workers()
		workerpool.SetWorkers(jobs)
		defer workerpool.SetWorkers(old)
		var buf bytes.Buffer
		rep, err := Run(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), rep
	}
	serial, rep := out(1)
	parallel, _ := out(4)
	if serial != parallel {
		t.Fatalf("chaos report differs across -j:\n-j1:\n%s\n-j4:\n%s", serial, parallel)
	}
	if rep.Quarantined == 0 {
		t.Fatalf("rate-0.4 chaos quarantined nothing:\n%s", serial)
	}
	if rep.Mismatches+rep.Violations != 0 {
		t.Fatalf("chaos must produce gaps, not mismatches:\n%s", serial)
	}
	if !strings.Contains(serial, "quarantined cells:") || !strings.Contains(serial, "QUAR ") {
		t.Fatalf("quarantine gaps not reported:\n%s", serial)
	}
}

// TestRunNoExecutorByteCompat checks the fault-free path: under the
// executor the process starts with, the report must not mention
// quarantine at all.
func TestRunNoExecutorByteCompat(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Run(&buf, Options{Seeds: []int64{21}, Spec: "gcc-O2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 || strings.Contains(buf.String(), "quarantined") {
		t.Fatalf("fault-free run mentions quarantine:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("expected PASS:\n%s", buf.String())
	}
}

// runOnStore renders opts with the store in dir as the process-wide
// store, as a process started with -cachedir dir does, and a fresh
// resilience executor injecting chaos (nil for none).
func runOnStore(t *testing.T, dir string, chaos *resilience.Chaos, opts Options) (string, *Report, *telemetry.Sink) {
	t.Helper()
	d, err := evalcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	defer resilience.Install(resilience.Install(resilience.NewExecutor(chaos)))
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	var buf bytes.Buffer
	rep, err := Run(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), rep, snk
}

// TestChaosRunStoresNoQuarantine: a run under fault injection fills a
// store, and a clean rerun on it must print the cold run's bytes. The
// subjects the chaos run finished are read back; the ones with a
// quarantined cell were never stored and are recomputed.
func TestChaosRunStoresNoQuarantine(t *testing.T) {
	opts := Options{Seeds: []int64{1, 2, 3, 4, 5, 6}, Spec: "levels"}
	var cold bytes.Buffer
	if _, err := Run(&cold, opts); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, rep, _ := runOnStore(t, dir, &resilience.Chaos{Rate: 0.2, Seed: 5}, opts); rep.Quarantined == 0 {
		t.Fatal("chaos quarantined nothing; the test exercises no policy")
	}
	clean, _, snk := runOnStore(t, dir, nil, opts)
	if clean != cold.String() {
		t.Fatalf("clean rerun on the chaos run's store differs from a cold run:\n--- rerun:\n%s--- cold:\n%s", clean, cold.String())
	}
	if snk.Counter("diskcache.difftest.hit") == 0 || snk.Counter("diskcache.difftest.miss") == 0 {
		t.Fatalf("rerun read %d and recomputed %d subjects, want some of each",
			snk.Counter("diskcache.difftest.hit"), snk.Counter("diskcache.difftest.miss"))
	}
}

// TestSubjectUnitKey: every oracle setting and subject input that
// shapes a subject's findings reaches the key of its stored unit.
func TestSubjectUnitKey(t *testing.T) {
	unit := func(edit func(o *Oracle, s *Subject)) subjectUnit {
		t.Helper()
		configs, err := ParseMatrix("levels")
		if err != nil {
			t.Fatal(err)
		}
		o, s := NewOracle(configs), SynthSubject(1)
		s.Harnesses, s.Inputs = []string{"fuzz"}, map[string][][]int64{"fuzz": {{1, 2}}}
		edit(o, s)
		matrix, ok := o.matrixDigest()
		if !ok {
			t.Fatal("matrix has no digest")
		}
		return o.unit(s, matrix)
	}
	base := unit(func(*Oracle, *Subject) {})
	for name, edit := range map[string]func(o *Oracle, s *Subject){
		"name":         func(_ *Oracle, s *Subject) { s.Name += "'" },
		"source":       func(_ *Oracle, s *Subject) { s.Src = []byte(string(s.Src) + "\n") },
		"harnesses":    func(_ *Oracle, s *Subject) { s.Harnesses = append(s.Harnesses, "other") },
		"inputs":       func(_ *Oracle, s *Subject) { s.Inputs = map[string][][]int64{"fuzz": {{1, 3}}} },
		"entry":        func(_ *Oracle, s *Subject) { s.Entry = "start" },
		"matrix":       func(o *Oracle, _ *Subject) { o.Configs = o.Configs[1:] },
		"budget":       func(o *Oracle, _ *Subject) { o.Budget++ },
		"trace budget": func(o *Oracle, _ *Subject) { o.TraceBudget++ },
		"check debug":  func(o *Oracle, _ *Subject) { o.CheckDebug = false },
	} {
		if unit(edit) == base {
			t.Errorf("changing the %s leaves the unit key at %+v", name, base)
		}
	}
}
