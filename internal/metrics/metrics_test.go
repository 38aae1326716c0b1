package metrics

import (
	"fmt"
	"testing"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/sema"
	"debugtuner/internal/synth"
)

const measureSrc = `
var table: int[] = new int[64];

func mix(x: int, salt: int): int {
	var a: int = x * 31 + salt;
	var b: int = a ^ (a >> 5);
	var c: int = b * 3;
	if (c < 0) {
		c = 0 - c;
	}
	return c % 1024;
}
func fill(n: int) {
	for (var i: int = 0; i < n; i = i + 1) {
		var h: int = mix(i, 17);
		table[i % 64] = h;
	}
}
func total(n: int): int {
	var sum: int = 0;
	var odd: int = 0;
	for (var i: int = 0; i < n; i = i + 1) {
		var v: int = table[i % 64];
		if (v % 2 == 1) {
			odd = odd + 1;
		}
		sum = sum + v;
	}
	print(odd);
	return sum;
}
func main() {
	fill(100);
	print(total(100));
	var guard: int = table[3];
	if (guard > 100000) {
		print(777777); // unreachable in practice: dead for the dynamic baseline
	}
}
`

type measured struct {
	info *sema.Info
	dr   *sema.DefRanges
	base *dbgtrace.Trace // O0 trace
}

func measureSetup(t *testing.T) *measured {
	t.Helper()
	info, err := pipeline.Frontend("m.mc", []byte(measureSrc))
	if err != nil {
		t.Fatal(err)
	}
	dr := sema.ComputeDefRanges(info)
	base := traceFor(t, pipeline.MustConfig(pipeline.GCC, "O0"))
	return &measured{info: info, dr: dr, base: base}
}

func traceFor(t *testing.T, cfg pipeline.Config) *dbgtrace.Trace {
	t.Helper()
	bin, _, err := pipeline.CompileSource("m.mc", []byte(measureSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := debugger.NewSession(bin)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.TraceMain("main", 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func tableFor(t *testing.T, cfg pipeline.Config) *debuginfo.Table {
	t.Helper()
	bin, _, err := pipeline.CompileSource("m.mc", []byte(measureSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := debuginfo.Decode(bin.Debug)
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// TestBaselineIsPerfect: measuring O0 against itself must give exactly 1
// on every dynamic metric.
func TestBaselineIsPerfect(t *testing.T) {
	m := measureSetup(t)
	s := Dynamic(m.base, m.base)
	if s.Avail != 1 || s.LineCov != 1 || s.Product != 1 {
		t.Fatalf("O0 vs O0 = %+v, want all 1", s)
	}
	h := Hybrid(m.base, m.base, m.dr)
	if h.Avail != 1 || h.LineCov != 1 {
		t.Fatalf("hybrid O0 vs O0 = %+v, want 1", h)
	}
}

// TestMetricBounds: every method stays within [0,1] at every level.
func TestMetricBounds(t *testing.T) {
	m := measureSetup(t)
	stmt := sema.StatementLines(m.info)
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, l := range pipeline.Levels(p) {
			cfg := pipeline.MustConfig(p, l)
			tr := traceFor(t, cfg)
			dt := tableFor(t, cfg)
			for name, s := range map[string]Scores{
				"dynamic":    Dynamic(tr, m.base),
				"hybrid":     Hybrid(tr, m.base, m.dr),
				"static":     Static(dt, stmt, m.dr),
				"static-dbg": StaticDbg(dt, m.base, m.dr),
			} {
				for what, v := range map[string]float64{
					"avail": s.Avail, "linecov": s.LineCov, "product": s.Product,
				} {
					if v < 0 || v > 1 {
						t.Errorf("%s/%s/%s %s = %v out of [0,1]", p, l, name, what, v)
					}
				}
			}
		}
	}
}

// TestMethodOrderings checks the structural relations §II establishes:
// hybrid availability >= dynamic availability (the clipped baseline can
// only shrink denominators), hybrid and dynamic line coverage are equal,
// and optimization does not improve the product over O0.
func TestMethodOrderings(t *testing.T) {
	m := measureSetup(t)
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		for _, l := range pipeline.Levels(p) {
			cfg := pipeline.MustConfig(p, l)
			tr := traceFor(t, cfg)
			dyn := Dynamic(tr, m.base)
			hyb := Hybrid(tr, m.base, m.dr)
			if hyb.Avail < dyn.Avail-1e-9 {
				t.Errorf("%s/%s: hybrid avail %.4f < dynamic %.4f", p, l, hyb.Avail, dyn.Avail)
			}
			if hyb.LineCov != dyn.LineCov {
				t.Errorf("%s/%s: hybrid linecov %.4f != dynamic %.4f", p, l, hyb.LineCov, dyn.LineCov)
			}
			if hyb.Product > 1 {
				t.Errorf("%s/%s: product %v > 1", p, l, hyb.Product)
			}
		}
	}
}

// TestDegradationWithLevel: the product metric at O3 must not exceed O1
// (real-world programs degrade monotonically, §II).
func TestDegradationWithLevel(t *testing.T) {
	m := measureSetup(t)
	for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		prods := map[string]float64{}
		for _, l := range pipeline.Levels(p) {
			tr := traceFor(t, pipeline.MustConfig(p, l))
			prods[l] = Hybrid(tr, m.base, m.dr).Product
		}
		if prods["O3"] > prods["O1"]+1e-9 {
			t.Errorf("%s: product O3 %.4f > O1 %.4f", p, prods["O3"], prods["O1"])
		}
		if prods["O1"] >= 1 {
			t.Errorf("%s: O1 lost no debug information at all (%.4f)", p, prods["O1"])
		}
	}
}

// TestStaticOverestimatesOnGCC: at O2/O3 under the gcc profile's
// optimistic ranges, the static-dbg availability must exceed the hybrid
// one — the overestimation the hybrid method corrects (Table I).
func TestStaticOverestimatesOnGCC(t *testing.T) {
	m := measureSetup(t)
	for _, l := range []string{"O2", "O3"} {
		cfg := pipeline.MustConfig(pipeline.GCC, l)
		tr := traceFor(t, cfg)
		dt := tableFor(t, cfg)
		hyb := Hybrid(tr, m.base, m.dr)
		st := StaticDbg(dt, m.base, m.dr)
		if st.Avail < hyb.Avail {
			t.Errorf("gcc/%s: static-dbg avail %.4f < hybrid %.4f (expected overestimation)",
				l, st.Avail, hyb.Avail)
		}
	}
}

// TestAggregates sanity-checks the geometric helpers.
func TestAggregates(t *testing.T) {
	if g := GeoMean([]float64{0.25, 1}); g < 0.49 || g > 0.51 {
		t.Fatalf("GeoMean = %v, want 0.5", g)
	}
	if s := GeoStdDev([]float64{0.5, 0.5, 0.5}); s != 1 {
		t.Fatalf("GeoStdDev of constants = %v, want 1", s)
	}
}

// TestStaticProvenLowerBoundsStatic: the proven variant restricts the
// static numerator to claims the owner dataflow analysis proves must
// materialize, so under the same line denominator it can never exceed
// Static — on the measurement program and on generated ones, at every
// profile and level. At gcc O2/O3 the gap must be real: some surviving
// claim is not provable, otherwise the proven column of Table 1 would
// be vacuous.
func TestStaticProvenLowerBoundsStatic(t *testing.T) {
	type subject struct {
		name string
		src  []byte
	}
	subjects := []subject{{"m.mc", []byte(measureSrc)}}
	for seed := int64(1); seed <= 4; seed++ {
		name := fmt.Sprintf("synth-%d.mc", seed)
		subjects = append(subjects, subject{name, []byte(synth.Generate(seed, synth.DefaultOptions()))})
	}
	for _, sub := range subjects {
		info, err := pipeline.Frontend(sub.name, sub.src)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		dr := sema.ComputeDefRanges(info)
		stmt := sema.StatementLines(info)
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, l := range pipeline.Levels(p) {
				cfg := pipeline.MustConfig(p, l)
				bin, _, err := pipeline.CompileSource(sub.name, sub.src, cfg)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", sub.name, p, l, err)
				}
				dt, err := debuginfo.Decode(bin.Debug)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", sub.name, p, l, err)
				}
				st := Static(dt, stmt, dr)
				pr := StaticProven(bin, dt, stmt, dr)
				if pr.Avail > st.Avail+1e-9 || pr.Product > st.Product+1e-9 {
					t.Errorf("%s %s/%s: proven %+v exceeds static %+v", sub.name, p, l, pr, st)
				}
				if pr.Avail < 0 || pr.Avail > 1 || pr.Product < 0 || pr.Product > 1 {
					t.Errorf("%s %s/%s: proven %+v out of [0,1]", sub.name, p, l, pr)
				}
			}
		}
	}
	// The gap: on the measurement program at gcc O2 some claim must be
	// unprovable, or the proven column never says anything new.
	m := measureSetup(t)
	stmt := sema.StatementLines(m.info)
	cfg := pipeline.MustConfig(pipeline.GCC, "O2")
	bin, _, err := pipeline.CompileSource("m.mc", []byte(measureSrc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := debuginfo.Decode(bin.Debug)
	if err != nil {
		t.Fatal(err)
	}
	st := Static(dt, stmt, m.dr)
	pr := StaticProven(bin, dt, stmt, m.dr)
	if pr.Avail >= st.Avail {
		t.Errorf("gcc/O2: proven avail %.4f not below static %.4f", pr.Avail, st.Avail)
	}
}
