package api

import (
	"math"

	"debugtuner/internal/difftest"
	"debugtuner/internal/resilience"
	"debugtuner/internal/tuner"
)

// RankedPassesFrom converts a level analysis' ranking to wire rows.
// AvgRank +Inf (a fully-quarantined pass with no surviving measurement)
// becomes -1 on the wire: JSON has no infinities, and -1 is impossible
// for a real average of 1-based ranks.
func RankedPassesFrom(ranking []tuner.RankedPass) []RankedPass {
	out := make([]RankedPass, 0, len(ranking))
	for i, rp := range ranking {
		avg := rp.AvgRank
		if math.IsInf(avg, 1) {
			avg = -1
		}
		out = append(out, RankedPass{
			Rank:            i + 1,
			Name:            rp.Name,
			Display:         rp.Display,
			Backend:         rp.Backend,
			AvgRank:         avg,
			GeoIncrementPct: rp.GeoIncrementPct,
		})
	}
	return out
}

// ParetoResultFrom converts measured points to the wire payload,
// computing front membership once so every consumer (server response,
// Fig2 renderer) agrees on it.
func ParetoResultFrom(profile, level string, pts []tuner.Point) *ParetoResult {
	front := tuner.ParetoFront(pts)
	onFront := make(map[string]bool, len(front))
	for _, p := range front {
		onFront[p.Label] = true
	}
	res := &ParetoResult{Profile: profile, Level: level, FrontSize: len(front)}
	for _, p := range pts {
		res.Points = append(res.Points, ParetoPoint{
			Label:       p.Label,
			Debug:       p.Debug,
			Speedup:     p.Speedup,
			OnFront:     !p.Quarantined && onFront[p.Label],
			Quarantined: p.Quarantined,
		})
	}
	return res
}

// FindingsFrom converts difftest findings to wire findings.
func FindingsFrom(fs []difftest.Finding) []Finding {
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, Finding{
			Subject: f.Subject, Config: f.Config, Kind: f.Kind, Detail: f.Detail,
		})
	}
	return out
}

// QuarantineRecordsFrom converts quarantined cell errors to wire
// records, in the executor's (sorted) report order.
func QuarantineRecordsFrom(ces []*resilience.CellError) []QuarantineRecord {
	out := make([]QuarantineRecord, 0, len(ces))
	for _, ce := range ces {
		rec := QuarantineRecord{
			Key: ce.Key, Kind: string(ce.Kind), Attempts: 1, Pass: ce.Pass,
		}
		if ce.Err != nil {
			rec.Err = ce.Err.Error()
		}
		out = append(out, rec)
	}
	return out
}
