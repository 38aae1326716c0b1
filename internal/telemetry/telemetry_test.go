package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestDisabledFastPath: with no sink installed, every entry point is a
// no-op and Begin returns a nil span whose End is safe.
func TestDisabledFastPath(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("Enabled() = true with no sink")
	}
	sp := Begin("cat", "name")
	if sp != nil {
		t.Fatal("Begin returned non-nil span while disabled")
	}
	sp.TID(3).End() // must not panic
	Add("counter", 1)
	Max("gauge", 9)
	AddDamage("inline", "main", Damage{DbgDropped: 1})
}

func TestCountersAndDamage(t *testing.T) {
	s := Enable()
	defer Disable()
	Add("vm.steps", 10)
	Add("vm.steps", 5)
	Max("queue", 3)
	Max("queue", 2)
	AddDamage("gvn", "f", Damage{Runs: 1, DbgDropped: 2, LinesZeroed: 1})
	AddDamage("gvn", "f", Damage{Runs: 1, RangesEnded: 4})
	AddDamage("gvn", "g", Damage{Runs: 1, DbgDropped: 1})

	if got := s.Counter("vm.steps"); got != 15 {
		t.Fatalf("counter = %d, want 15", got)
	}
	if got := s.Maxima()["queue"]; got != 3 {
		t.Fatalf("max = %d, want 3", got)
	}
	cell := s.Ledger()[DamageKey{Pass: "gvn", Func: "f"}]
	if cell.Runs != 2 || cell.DbgDropped != 2 || cell.RangesEnded != 4 {
		t.Fatalf("ledger cell = %+v", cell)
	}
	agg := s.DamageByPass()["gvn"]
	if agg.DbgDropped != 3 || agg.Runs != 3 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.Events() != 3+1+4 {
		t.Fatalf("Events() = %d", agg.Events())
	}
}

// TestFoldFuncs: a folded ledger keeps one cell per pass, for the cells
// it held and for every later function name, with the totals intact.
func TestFoldFuncs(t *testing.T) {
	s := NewSink()
	s.AddDamage("gvn", "f", Damage{Runs: 1, DbgDropped: 2})
	s.AddDamage("dce", "f", Damage{Runs: 1})
	s.FoldFuncs()
	s.AddDamage("gvn", "g", Damage{Runs: 1, DbgDropped: 1})
	s.AddDamage("gvn", "h", Damage{Runs: 1, LinesZeroed: 3})
	l := s.Ledger()
	if len(l) != 2 {
		t.Fatalf("folded ledger has %d cells, want one per pass: %v", len(l), l)
	}
	if c := l[DamageKey{Pass: "gvn", Func: foldedFunc}]; c.Runs != 3 || c.DbgDropped != 3 || c.LinesZeroed != 3 {
		t.Fatalf("folded gvn cell = %+v", c)
	}
}

// TestConcurrentEmission exercises concurrent span/counter/damage
// emission into a span-keeping sink; run under -race via ci.sh.
func TestConcurrentEmission(t *testing.T) {
	s := NewTraceSink()
	Install(s)
	defer Disable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Begin("pass", "work").TID(g)
				Add("events", 1)
				Max("depth", int64(i))
				AddDamage("dce", "f", Damage{Runs: 1, DbgDropped: 1})
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := s.Counter("events"); got != 8*200 {
		t.Fatalf("events = %d, want %d", got, 8*200)
	}
	if got := len(s.Spans()); got != 8*200 {
		t.Fatalf("spans = %d, want %d", got, 8*200)
	}
	if got := s.SpanCount(); got != 8*200 {
		t.Fatalf("span count = %d, want %d", got, 8*200)
	}
	if got := s.DamageByPass()["dce"].DbgDropped; got != 8*200 {
		t.Fatalf("damage = %d, want %d", got, 8*200)
	}
}

// TestWriteTrace validates the Chrome trace-event shape: a JSON object
// with a traceEvents array of "X"/"C" events carrying ts/pid/tid.
func TestWriteTrace(t *testing.T) {
	s := NewTraceSink()
	sp := s.Begin("pipeline", "build")
	sp.End()
	s.Add("evalcache.hit", 7)

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2", len(f.TraceEvents))
	}
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "C" {
			t.Fatalf("unexpected phase %q", ph)
		}
		for _, k := range []string{"name", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
	}
}

func TestWriteMetrics(t *testing.T) {
	s := NewSink()
	s.Add("vm.cycles", 42)
	s.AddDamage("tree-sink", "main", Damage{Runs: 1, LinesZeroed: 3})
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Counters map[string]int64 `json:"counters"`
		Damage   []DamageRow      `json:"damage"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if f.Counters["vm.cycles"] != 42 {
		t.Fatalf("counters = %v", f.Counters)
	}
	if len(f.Damage) != 1 || f.Damage[0].Pass != "tree-sink" || f.Damage[0].LinesZeroed != 3 {
		t.Fatalf("damage = %+v", f.Damage)
	}
}

// TestUntracedSinkCountsSpans: a sink whose trace nobody exports (tunerd
// without -trace, -metrics alone) counts its spans for span_count but
// keeps no record of them, so a long-lived process does not accumulate
// one per pass run.
func TestUntracedSinkCountsSpans(t *testing.T) {
	s := NewSink()
	const n = 5
	for i := 0; i < n; i++ {
		s.Begin("pass", "work").End()
	}
	if got := len(s.Spans()); got != 0 {
		t.Fatalf("untraced sink holds %d span records, want 0", got)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		SpanCount int `json:"span_count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.SpanCount != n {
		t.Fatalf("span_count = %d, want %d", f.SpanCount, n)
	}
}
