package debugtuner_test

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// tableIRows parses Table I of a pinned experiments output: for each of
// its two sections (methods, and static vs dataflow-proven static) the
// rows as column name -> value, keyed by the section's header line.
func tableIRows(t *testing.T, path string) map[string][]map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	start := strings.Index(text, "==== table1 ====\n")
	if start < 0 {
		t.Fatalf("%s has no table1 section", path)
	}
	text = text[start+len("==== table1 ====\n"):]
	if end := strings.Index(text, "\n===="); end >= 0 {
		text = text[:end]
	}
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
	for _, path := range []string{"testdata/golden/quick-all.txt", "experiments_output.txt"} {
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
