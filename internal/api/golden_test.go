package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// golden locks one DTO's wire form: the fixture must marshal to the
// committed golden byte for byte (field order, names, omitempty
// behavior), and the golden must unmarshal back to a deep-equal value.
// Any change to these bytes is a wire-format change and must be a
// conscious, versioned decision.
func golden[T any](t *testing.T, name string, fixture T) {
	t.Helper()
	got, err := json.MarshalIndent(fixture, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: marshaled form drifted from golden\n got: %s\nwant: %s", name, got, want)
	}
	var back T
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("%s: golden does not unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(back, fixture) {
		t.Errorf("%s: round-trip mismatch\n got: %+v\nwant: %+v", name, back, fixture)
	}
}

func spd(v float64) *float64 { return &v }

func TestGoldenError(t *testing.T) {
	golden(t, "error", Error{Code: CodeInvalidArgument, Msg: "unknown profile \"tcc\""})
}

func TestGoldenUnit(t *testing.T) {
	golden(t, "unit", Unit{Name: "zlib", Source: "func main() {\n    print(1);\n}\n"})
}

func TestGoldenTuneRequest(t *testing.T) {
	golden(t, "tune_request", TuneRequest{
		V: 1, Profile: "gcc", Level: "O2", Dy: []int{3, 5, 7, 9},
		Units: []Unit{{Name: "a", Source: "func main() { print(1); }"}},
	})
}

func TestGoldenRankedPass(t *testing.T) {
	golden(t, "ranked_pass", RankedPass{
		Rank: 1, Name: "dce", Display: "dead code elimination", Backend: false,
		AvgRank: 1.42, GeoIncrementPct: 12.5,
	})
}

func TestGoldenTunedConfig(t *testing.T) {
	golden(t, "tuned_config", TunedConfig{
		Name: "O2-d3", Disabled: []string{"dce", "licm", "sroa"},
		Product: 0.6412, DeltaPct: 14.02, Speedup: spd(3.17),
	})
}

func TestGoldenTuneResult(t *testing.T) {
	golden(t, "tune_result", TuneResult{
		Profile: "gcc", Level: "O2", Subjects: []string{"a", "b"},
		Positive: 7, Neutral: 3, Negative: 2,
		Ranking: []RankedPass{
			{Rank: 1, Name: "dce", Display: "dead code elimination", AvgRank: 1.0, GeoIncrementPct: 9.1},
			{Rank: 2, Name: "licm", Display: "loop-invariant code motion", Backend: true, AvgRank: -1, GeoIncrementPct: 0},
		},
		Reference: TunedConfig{Name: "O2", Product: 0.5591},
		Configs: []TunedConfig{
			{Name: "O2-d3", Disabled: []string{"dce"}, Product: 0.6001, DeltaPct: 7.33},
		},
		QuarantinedSubjects: []string{"b"},
		QuarantinedCells:    2,
	})
}

func TestGoldenParetoPoint(t *testing.T) {
	golden(t, "pareto_point", ParetoPoint{
		Label: "O2-d5", Debug: 0.7012, Speedup: 2.85, OnFront: true,
	})
}

func TestGoldenParetoResult(t *testing.T) {
	golden(t, "pareto_result", ParetoResult{
		Profile: "clang", Level: "O3",
		Points: []ParetoPoint{
			{Label: "O0", Debug: 1.0, Speedup: 1.0, OnFront: true},
			{Label: "O3", Debug: 0.31, Speedup: 4.4, OnFront: true},
			{Label: "O3-d9", Quarantined: true},
		},
		FrontSize: 2,
	})
}

func TestGoldenReportRequest(t *testing.T) {
	golden(t, "report_request", ReportRequest{
		V: 1, Configs: "gcc-O2,clang-O3*",
		Units: []Unit{{Name: "subj", Source: "func main() { print(0); }"}},
	})
}

func TestGoldenFinding(t *testing.T) {
	golden(t, "finding", Finding{
		Subject: "subj", Config: "gcc-O2", Kind: "behavior",
		Detail: "output diverges from reference at step 12",
	})
}

func TestGoldenStaticStat(t *testing.T) {
	golden(t, "static_stat", StaticStat{
		Subject: "subj", Config: "gcc-O2",
		BaseLines: 120, BaseVars: 34, FinalLines: 96, FinalVars: 28, Violations: 1,
	})
}

func TestGoldenDebugReport(t *testing.T) {
	golden(t, "debug_report", DebugReport{
		Subjects: []string{"subj"}, Configs: []string{"gcc-O0", "gcc-O2"},
		Findings: []Finding{
			{Subject: "subj", Config: "gcc-O2", Kind: "invariant", Detail: "line table hole"},
		},
		Mismatches: 0, Violations: 1,
		Static: []StaticStat{
			{Subject: "subj", Config: "gcc-O0", BaseLines: 10, BaseVars: 2, FinalLines: 10, FinalVars: 2},
		},
		Quarantined: []QuarantineRecord{
			{Key: "subj|gcc-O2", Kind: "quarantine", Attempts: 3, Err: "cell panicked"},
		},
	})
}

func TestGoldenQuarantineRecord(t *testing.T) {
	golden(t, "quarantine_record", QuarantineRecord{
		Key: "measure|zlib|gcc-O2|licm", Kind: "panic", Attempts: 3, Pass: "licm",
		Err: "runtime error: index out of range",
	})
}

func TestGoldenEnvelope(t *testing.T) {
	golden(t, "envelope_error", Envelope{
		V: 1, Kind: "error",
		Error: &Error{Code: CodeDraining, Msg: "server is draining"},
	})
}

// TestMarshalEnvelopeDeterministic locks the byte-determinism property
// the response cache depends on: marshaling the same envelope twice
// yields identical bytes, ending in exactly one newline.
func TestMarshalEnvelopeDeterministic(t *testing.T) {
	env := &Envelope{Kind: "tune", Tune: &TuneResult{
		Profile: "gcc", Level: "O2", Subjects: []string{"a"},
		Reference: TunedConfig{Name: "O2", Product: 0.5},
	}}
	a, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two marshalings of one envelope differ")
	}
	if a[len(a)-1] != '\n' || bytes.Count(a, []byte("\n")) != 1 {
		t.Errorf("envelope body %q is not compact-JSON-plus-newline", a)
	}
	if env.V != Version {
		t.Errorf("MarshalEnvelope left V=%d, want %d", env.V, Version)
	}
}

// TestCanonicalKeyNormalizes locks the cache-key property: requests
// that decode to the same normalized value share a key regardless of
// JSON whitespace or field order, and different endpoints never share.
func TestCanonicalKeyNormalizes(t *testing.T) {
	a, aerr := DecodeTuneRequest(bytes.NewReader([]byte(
		`{"v":1,"profile":"gcc","level":"O2","units":[{"name":"a","source":"func main() { print(1); }"}]}`)))
	if aerr != nil {
		t.Fatal(aerr)
	}
	b, berr := DecodeTuneRequest(bytes.NewReader([]byte(
		"{\n  \"units\": [{\"source\": \"func main() { print(1); }\", \"name\": \"a\"}],\n  \"level\": \"O2\", \"profile\": \"gcc\", \"v\": 1\n}")))
	if berr != nil {
		t.Fatal(berr)
	}
	if CanonicalKey("tune", a) != CanonicalKey("tune", b) {
		t.Error("whitespace/field-order variants got different cache keys")
	}
	if CanonicalKey("tune", a) == CanonicalKey("pareto", a) {
		t.Error("different endpoints share a cache key")
	}
}
