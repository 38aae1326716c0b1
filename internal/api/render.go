package api

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// This file is the one text-rendering path for API payloads. Command
// debugtuner, command tunerd-client, and the experiments Fig2 table all
// call these functions, so what the CLI prints and what the server
// serves are projections of the same structs and cannot drift.

// RenderTuneResult writes the pass-ranking table and the configuration
// scoreboard. top bounds the ranking rows printed (<= 0 means all).
// The format is the historical debugtuner output, byte for byte.
func RenderTuneResult(w io.Writer, res *TuneResult, top int) {
	if top <= 0 {
		top = len(res.Ranking)
	}
	fmt.Fprintf(w, "\npass ranking for %s-%s (%d toggles; %d improve, %d neutral, %d degrade)\n",
		res.Profile, res.Level, len(res.Ranking), res.Positive, res.Neutral, res.Negative)
	fmt.Fprintf(w, "%-3s %-28s %10s %9s\n", "#", "pass", "avg rank", "Δ%")
	for _, rp := range res.Ranking {
		if rp.Rank > top {
			break
		}
		name := rp.Display
		if rp.Backend {
			name += " *"
		}
		avg := rp.AvgRank
		if avg == -1 {
			// Wire encoding of "no surviving measurement" (see
			// RankedPassesFrom); display as the +Inf it stands for.
			avg = math.Inf(1)
		}
		fmt.Fprintf(w, "%-3d %-28s %10.2f %+8.2f\n", rp.Rank, name, avg, rp.GeoIncrementPct)
	}

	fmt.Fprintf(w, "\nconfigurations (suite-average hybrid product metric)\n")
	renderConfigLine(w, res.Reference, false)
	for _, cfg := range res.Configs {
		renderConfigLine(w, cfg, true)
		fmt.Fprintf(w, "           disabled: %s\n", strings.Join(cfg.Disabled, ", "))
	}
	if len(res.QuarantinedSubjects) > 0 || res.QuarantinedCells > 0 {
		fmt.Fprintf(w, "\nQUARANTINED: %d subject(s) [%s], %d matrix cell(s)\n",
			len(res.QuarantinedSubjects), strings.Join(res.QuarantinedSubjects, ", "),
			res.QuarantinedCells)
	}
}

func renderConfigLine(w io.Writer, cfg TunedConfig, delta bool) {
	fmt.Fprintf(w, "%-10s product=%.4f", cfg.Name, cfg.Product)
	if delta {
		fmt.Fprintf(w, " (%+.2f%%)", cfg.DeltaPct)
	}
	if cfg.Speedup != nil {
		fmt.Fprintf(w, "  speedup=%.2fx", *cfg.Speedup)
	}
	fmt.Fprintln(w)
}

// RenderPareto writes the scatter table and front summary under the
// given header line — the historical Fig2 format, byte for byte
// (including the trailing blank line). A result that left subjects out
// names them on one more line before the blank one.
func RenderPareto(w io.Writer, header string, res *ParetoResult) {
	fmt.Fprintf(w, "%s\n", header)
	fmt.Fprintf(w, "%-16s | %10s | %8s\n", "configuration", "product", "speedup")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 44))
	for _, pt := range res.Points {
		if pt.Quarantined {
			fmt.Fprintf(w, "%-16s | %10s | %8s\n", pt.Label, "QUAR", "QUAR")
			continue
		}
		mark := " "
		if pt.OnFront {
			mark = "*"
		}
		fmt.Fprintf(w, "%-16s | %10.4f | %7.2fx %s\n", pt.Label, pt.Debug, pt.Speedup, mark)
	}
	fmt.Fprintf(w, "Pareto-optimal: %d of %d configurations\n", res.FrontSize, len(res.Points))
	if len(res.QuarantinedSubjects) > 0 {
		fmt.Fprintf(w, "QUARANTINED: %d subject(s) [%s] left out of every point\n",
			len(res.QuarantinedSubjects), strings.Join(res.QuarantinedSubjects, ", "))
	}
	fmt.Fprintln(w)
}

// RenderDebugReport writes the debuggability report: per-cell static
// survival, findings, and quarantine gaps.
func RenderDebugReport(w io.Writer, rep *DebugReport) {
	fmt.Fprintf(w, "debug report: %d subject(s) x %d config(s)\n",
		len(rep.Subjects), len(rep.Configs))
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %6s\n",
		"subject", "config", "lines", "vars", "viol")
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", 68))
	for _, st := range rep.Static {
		fmt.Fprintf(w, "%-16s %-14s %6d/%-7d %6d/%-7d %6d\n",
			st.Subject, st.Config, st.FinalLines, st.BaseLines,
			st.FinalVars, st.BaseVars, st.Violations)
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "FAIL %s [%s] %s: %s\n", f.Subject, f.Config, f.Kind, f.Detail)
	}
	for _, q := range rep.Quarantined {
		fmt.Fprintf(w, "QUAR %s: %s after %d attempt(s): %s\n", q.Key, q.Kind, q.Attempts, q.Err)
	}
	if rep.Mismatches+rep.Violations == 0 && len(rep.Quarantined) == 0 {
		fmt.Fprintln(w, "PASS")
	} else {
		fmt.Fprintf(w, "%d behavior mismatch(es), %d violation(s), %d quarantined\n",
			rep.Mismatches, rep.Violations, len(rep.Quarantined))
	}
}
