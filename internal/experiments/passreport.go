package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/testsuite"
)

// PassReportRow is one pass's aggregate damage over the suite build.
type PassReportRow struct {
	Pass    string
	Backend bool
	// Cleanup marks the pipeline's always-on bookkeeping runs
	// ("cleanup/<name>" in the ledger); no configuration can disable
	// them, so they sort after every user-visible toggle.
	Cleanup bool
	telemetry.Damage
	// Score ranks rows: discrete damage events plus instruction churn.
	// Churn matters because the inliner's debug cost is code it
	// duplicates into callers (every copied line and binding is a new
	// liability downstream), which the event classes alone undercount.
	Score int64
}

// PassReport builds the thirteen test-suite programs under the
// profile/level with the damage ledger enabled and returns one row per
// responsible pass, ranked by damage. The subjects are loaded without
// corpora (building needs no inputs), and the ledger is collected on a
// private sink swapped in around the builds, so a concurrently
// installed -trace sink neither pollutes nor is polluted by the report.
func PassReport(p pipeline.Profile, level string) ([]PassReportRow, error) {
	cfg, err := pipeline.NewConfig(p, level)
	if err != nil {
		return nil, err
	}
	var subjects []*testsuite.Subject
	for _, name := range testsuite.Names {
		s, err := testsuite.LoadLite(name)
		if err != nil {
			return nil, err
		}
		subjects = append(subjects, s)
	}
	snk := telemetry.NewSink()
	prev := telemetry.Install(snk)
	for _, s := range subjects {
		pipeline.Build(s.IR0, cfg)
	}
	telemetry.Install(prev)

	byPass := snk.DamageByPass()
	rows := make([]PassReportRow, 0, len(byPass))
	for pass, d := range byPass {
		churn := d.InstrDelta
		if churn < 0 {
			churn = -churn
		}
		rows = append(rows, PassReportRow{
			Pass: pass, Backend: pipeline.IsBackend(pass),
			Cleanup: strings.HasPrefix(pass, "cleanup/"),
			Damage:  d, Score: d.Events() + churn,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cleanup != rows[j].Cleanup {
			return !rows[i].Cleanup
		}
		if rows[i].Score != rows[j].Score {
			return rows[i].Score > rows[j].Score
		}
		return rows[i].Pass < rows[j].Pass
	})
	return rows, nil
}

// WritePassReport prints the ranked damage table. Back-end passes carry
// the paper's '*' annotation.
func WritePassReport(w io.Writer, p pipeline.Profile, level string) error {
	rows, err := PassReport(p, level)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Debug-damage report — test suite built at %s-%s\n", p, level)
	fmt.Fprintf(w, "%-3s %-22s | %5s %8s | %8s %7s %7s %7s %7s %7s | %8s\n",
		"#", "pass", "runs", "wall ms", "Δinstr",
		"dropped", "salvage", "zeroed", "changed", "ranges", "score")
	hr(w, 116)
	rank := 0
	cleanupHeader := false
	for _, r := range rows {
		name := r.Pass
		if r.Backend {
			name += " *"
		}
		pos := "-"
		if r.Cleanup {
			if !cleanupHeader {
				fmt.Fprintln(w, "-- always-on cleanup runs (not user toggles) --")
				cleanupHeader = true
			}
		} else {
			rank++
			pos = fmt.Sprint(rank)
		}
		fmt.Fprintf(w, "%-3s %-22s | %5d %8.1f | %+8d %7d %7d %7d %7d %7d | %8d\n",
			pos, name, r.Runs, float64(r.WallNS)/1e6, r.InstrDelta,
			r.DbgDropped, r.DbgSalvaged, r.LinesZeroed, r.LinesChanged,
			r.RangesEnded, r.Score)
	}
	return nil
}
