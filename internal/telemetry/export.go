package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"time"
)

// traceEvent is one Chrome trace-event ("Trace Event Format"). Spans
// are "X" complete events; counters are a final "C" counter sample, so
// chrome://tracing and Perfetto render both without preprocessing.
type traceEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"` // microseconds
	Dur  float64          `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// traceFile is the JSON-object flavor of the trace format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteTrace writes the sink's spans and counters as Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto. Only a sink made by
// NewTraceSink has span records to write.
func (s *Sink) WriteTrace(w io.Writer) error {
	spans := s.Spans()
	counters := s.Counters()
	end := time.Since(s.epoch)

	events := make([]traceEvent, 0, len(spans)+len(counters))
	for _, sp := range spans {
		events = append(events, traceEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: usec(sp.Start), Dur: usec(sp.Dur),
			PID: 1, TID: sp.TID,
		})
	}
	for _, name := range sortedNames(counters) {
		events = append(events, traceEvent{
			Name: name, Ph: "C", TS: usec(end), PID: 1, TID: 0,
			Args: map[string]int64{"value": counters[name]},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// DamageRow is one serialized ledger cell.
type DamageRow struct {
	Pass         string `json:"pass"`
	Func         string `json:"func"`
	Runs         int64  `json:"runs"`
	WallNS       int64  `json:"wall_ns"`
	InstrDelta   int64  `json:"instr_delta"`
	DbgDropped   int64  `json:"dbg_dropped"`
	DbgSalvaged  int64  `json:"dbg_salvaged"`
	LinesZeroed  int64  `json:"lines_zeroed"`
	LinesChanged int64  `json:"lines_changed"`
	RangesEnded  int64  `json:"ranges_ended"`
}

// metricsFile is the -metrics JSON summary.
type metricsFile struct {
	WallSeconds float64          `json:"wall_seconds"`
	SpanCount   int              `json:"span_count"`
	Counters    map[string]int64 `json:"counters"`
	Maxima      map[string]int64 `json:"maxima,omitempty"`
	Damage      []DamageRow      `json:"damage"`
}

// WriteMetrics writes the JSON summary: counters, maxima, and the full
// damage ledger sorted by pass then function.
func (s *Sink) WriteMetrics(w io.Writer) error {
	ledger := s.Ledger()
	rows := make([]DamageRow, 0, len(ledger))
	for k, d := range ledger {
		rows = append(rows, DamageRow{
			Pass: k.Pass, Func: k.Func,
			Runs: d.Runs, WallNS: d.WallNS, InstrDelta: d.InstrDelta,
			DbgDropped: d.DbgDropped, DbgSalvaged: d.DbgSalvaged,
			LinesZeroed: d.LinesZeroed, LinesChanged: d.LinesChanged,
			RangesEnded: d.RangesEnded,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Pass != rows[j].Pass {
			return rows[i].Pass < rows[j].Pass
		}
		return rows[i].Func < rows[j].Func
	})
	out := metricsFile{
		WallSeconds: time.Since(s.epoch).Seconds(),
		SpanCount:   s.SpanCount(),
		Counters:    s.Counters(),
		Maxima:      s.Maxima(),
		Damage:      rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ExportFiles writes the sink's trace and/or metrics to the given
// paths; an empty path skips that export. Backs the commands' -trace
// and -metrics flags.
func ExportFiles(s *Sink, tracePath, metricsPath string) error {
	write := func(path string, fn func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(tracePath, s.WriteTrace); err != nil {
		return err
	}
	return write(metricsPath, s.WriteMetrics)
}

func sortedNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
