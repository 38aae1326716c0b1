package debugtuner_test

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/testsuite"
)

// pinnedFiles are the committed experiments outputs ci.sh compares live
// runs with byte for byte: the quick golden and the full run.
var pinnedFiles = []string{"testdata/golden/quick-all.txt", "experiments_output.txt"}

// experiment returns the named experiment's section of a pinned
// experiments output, without its "==== name ====" line.
func experiment(t *testing.T, path, name string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	head := "==== " + name + " ====\n"
	start := strings.Index(text, head)
	if start < 0 {
		t.Fatalf("%s has no %s section", path, name)
	}
	text = text[start+len(head):]
	if end := strings.Index(text, "\n===="); end >= 0 {
		text = text[:end]
	}
	return text
}

// tableIRows parses Table I of a pinned experiments output: for each of
// its two sections (methods, and static vs dataflow-proven static) the
// rows as column name -> value, keyed by the section's header line.
func tableIRows(t *testing.T, path string) map[string][]map[string]float64 {
	t.Helper()
	text := experiment(t, path, "table1")
	sections := map[string][]map[string]float64{}
	var header string
	var cols []string
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(strings.ReplaceAll(line, "|", " "))
		switch {
		case len(fields) > 0 && fields[0] == "comp":
			header, cols = line, fields
		case cols == nil || len(fields) == 0 || strings.HasPrefix(line, "---"):
		case len(fields) == len(cols):
			row := map[string]float64{}
			for i, c := range cols[2:] {
				v, err := strconv.ParseFloat(fields[i+2], 64)
				if err != nil {
					t.Fatalf("%s: row %q column %s: %v", path, line, c, err)
				}
				row[c] = v
			}
			sections[header] = append(sections[header], row)
		default:
			cols = nil
		}
	}
	return sections
}

// TestPinnedTableIRelations checks the paper's orderings on the pinned
// Table I of the quick golden and of the full run: in every row the
// hybrid metric is at least the dynamic one, and static availability is
// at least its dataflow-proven restriction, for both availability (av)
// and the product of metrics (pr). ci.sh compares live runs with both
// files byte for byte, so the relations hold for every run CI accepts.
func TestPinnedTableIRelations(t *testing.T) {
	for _, path := range pinnedFiles {
		var methods, proven int
		for header, rows := range tableIRows(t, path) {
			for _, r := range rows {
				ge := func(hi, lo string) {
					a, okA := r[hi]
					b, okB := r[lo]
					if !okA || !okB {
						t.Fatalf("%s: section %q has no %s or %s column", path, header, hi, lo)
					}
					if a < b {
						t.Errorf("%s: %s %.4f < %s %.4f in row %v", path, hi, a, lo, b, r)
					}
				}
				if _, ok := r["av.proven"]; ok {
					proven++
					ge("av.stat", "av.proven")
					ge("pr.stat", "pr.proven")
				} else {
					methods++
					ge("av.hyb", "av.dyn")
					ge("pr.hyb", "pr.dyn")
				}
			}
		}
		if methods == 0 || methods != proven {
			t.Errorf("%s: %d method rows and %d proven rows, want the same nonzero count", path, methods, proven)
		}
	}
}

// deltaCell matches one "level:+d.dd" cell of a Table VIII row.
var deltaCell = regexp.MustCompile(`(\w+):\s*([+-]?\d+\.\d+)`)

// TestPinnedTableVIIIRelations checks the paper's §V claim on the
// pinned Table VIII of both files: an Ox-dy configuration never has
// less debug information than its Ox, so every Δ-debug cell is >= 0.
func TestPinnedTableVIIIRelations(t *testing.T) {
	for _, path := range pinnedFiles {
		cells := 0
		for _, line := range strings.Split(experiment(t, path, "table8"), "\n") {
			_, rest, ok := strings.Cut(line, "| debug:")
			if !ok {
				continue
			}
			debug, _, ok := strings.Cut(rest, "| speedup:")
			if !ok {
				t.Fatalf("%s: row %q has no speedup part", path, line)
			}
			for _, m := range deltaCell.FindAllStringSubmatch(debug, -1) {
				v, err := strconv.ParseFloat(m[2], 64)
				if err != nil {
					t.Fatalf("%s: row %q: %v", path, line, err)
				}
				cells++
				if v < 0 {
					t.Errorf("%s: Δ debug %s:%+.2f < 0 in row %q", path, m[1], v, line)
				}
			}
		}
		if cells == 0 {
			t.Errorf("%s: Table VIII has no Δ debug cells", path)
		}
	}
}

// TestPinnedTableVVIRelations checks the paper's §V claims on the
// pinned Tables V (gcc) and VI (clang) of both files: the inliner
// ("inline", "Inliner") is the #1 critical pass at every level except
// gcc-Og, and every level's top 10 lists a back-end pass (marked *).
func TestPinnedTableVVIRelations(t *testing.T) {
	for _, path := range pinnedFiles {
		for _, tc := range []struct{ table, profile, inliner string }{
			{"table5", "gcc", "inline"}, {"table6", "clang", "Inliner"},
		} {
			var levels []string
			var ranks [][]string // ranks[i][l]: the pass ranked i+1 at levels[l]
			for _, line := range strings.Split(experiment(t, path, tc.table), "\n") {
				cells := strings.Split(line, "|")
				first := strings.TrimSpace(cells[0])
				if first == "#" {
					for _, c := range cells[1:] {
						levels = append(levels, strings.TrimSpace(c))
					}
					continue
				}
				if _, err := strconv.Atoi(first); err != nil || len(cells) != len(levels)+1 {
					continue
				}
				var row []string
				for _, c := range cells[1:] {
					// A cell is the pass name, possibly of several words,
					// then its improvement.
					fields := strings.Fields(c)
					if len(fields) < 2 {
						t.Fatalf("%s: %s row %q has a cell without a pass", path, tc.table, line)
					}
					row = append(row, strings.Join(fields[:len(fields)-1], " "))
				}
				ranks = append(ranks, row)
			}
			if len(levels) == 0 || len(ranks) != 10 {
				t.Fatalf("%s: %s has %d levels and %d ranks, want 10 ranks", path, tc.table, len(levels), len(ranks))
			}
			for l, level := range levels {
				if first := ranks[0][l]; first != tc.inliner && (tc.profile != "gcc" || level != "Og") {
					t.Errorf("%s: %s-%s ranks %q first, want %q", path, tc.profile, level, first, tc.inliner)
				}
				backend := false
				for _, row := range ranks {
					backend = backend || strings.HasSuffix(row[l], " *")
				}
				if !backend {
					t.Errorf("%s: %s-%s top 10 lists no back-end pass", path, tc.profile, level)
				}
			}
		}
	}
}

// TestSuiteO0IsPerfect: every suite subject measured at O0 against its
// own O0 baseline scores exactly (1, 1, 1), under both profiles.
func TestSuiteO0IsPerfect(t *testing.T) {
	subjects, err := testsuite.LoadAll(testsuite.CorpusOptions{Execs: 20})
	if err != nil {
		t.Fatal(err)
	}
	perfect := metrics.Scores{Avail: 1, LineCov: 1, Product: 1}
	for _, s := range subjects {
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			got, err := s.Scores(pipeline.MustConfig(p, "O0"))
			if err != nil {
				t.Fatalf("%s %s-O0: %v", s.Name, p, err)
			}
			if got != perfect {
				t.Errorf("%s %s-O0 vs O0 = %+v, want %+v", s.Name, p, got, perfect)
			}
		}
	}
}
