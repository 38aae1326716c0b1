// Package telemetry is the evaluation stack's observability layer:
// wall-clock spans, monotonic counters, and the per-pass debug-damage
// ledger that attributes metadata loss (dropped DbgValues, zeroed or
// rewritten line attributions, early-ended location ranges) to the
// transformation responsible for it.
//
// The package has no dependencies inside the repository, so every layer
// — passes, pipeline, codegen, vm, evalcache, workerpool — can import it
// without cycles.
//
// Collection is off by default and costs exactly one atomic pointer
// load on the hot paths: the process-global sink is an atomic pointer,
// and every entry point (Begin, Add, Max, AddDamage) returns
// immediately when it is nil. Instrumented code therefore never guards
// its telemetry calls; the nil-sink fast path is the guard.
//
// Enabling telemetry (the -trace / -metrics flags) installs a Sink;
// spans and counters accumulate under a mutex, which is uncontended in
// practice because instrumentation points record aggregates (per pass,
// per build, per VM run), not per-instruction events. Every sink counts
// spans; only one whose trace will be exported (-trace) keeps a record
// of each.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span.
type SpanRecord struct {
	// Name is the span's display name, Cat its category (the Chrome
	// trace-event "cat" field): "pass", "pipeline", "codegen",
	// "experiment", "workerpool".
	Name, Cat string
	// TID groups spans onto virtual threads in the trace view; 0 is the
	// main timeline, worker pools use 1..n.
	TID int
	// Start is the offset from the sink's epoch.
	Start time.Duration
	Dur   time.Duration
}

// DamageKey addresses one ledger cell: the responsible pass toggle and
// the function it transformed. Functions from different programs that
// share a name aggregate into one cell; the report is per-pass, so the
// merge is harmless.
type DamageKey struct {
	Pass string
	Func string
}

// Damage accumulates the debug-metadata cost of running a pass over a
// function, in units of discrete damage events.
type Damage struct {
	// Runs counts pass executions folded into this cell.
	Runs int64
	// WallNS is the total wall-clock spent in those executions.
	WallNS int64
	// InstrDelta is the net change in non-debug IR instruction count
	// (positive for code growth — the inliner's churn — negative for
	// deletion).
	InstrDelta int64
	// DbgDropped counts DbgValue bindings turned into "optimized out"
	// or removed outright.
	DbgDropped int64
	// DbgSalvaged counts DbgValue bindings rewritten to follow a
	// replacement value (the clang salvage policy, or a same-block
	// replacement under the gcc policy).
	DbgSalvaged int64
	// LinesZeroed counts instructions whose source-line attribution was
	// cleared (the cross-block hoist/sink rule, backend scheduling).
	LinesZeroed int64
	// LinesChanged counts instructions whose line attribution was
	// rewritten to a different nonzero line (merges, tail duplication).
	LinesChanged int64
	// RangesEnded counts variable location ranges ended earlier than
	// the variable's source-level scope (gcc-policy cross-block RAUW
	// drops, shrink-wrapped prologues).
	RangesEnded int64
}

// Events is the discrete damage-event total — the score passreport
// ranks by, together with instruction churn.
func (d Damage) Events() int64 {
	return d.DbgDropped + d.LinesZeroed + d.LinesChanged + d.RangesEnded
}

// add folds e into d.
func (d *Damage) add(e Damage) {
	d.Runs += e.Runs
	d.WallNS += e.WallNS
	d.InstrDelta += e.InstrDelta
	d.DbgDropped += e.DbgDropped
	d.DbgSalvaged += e.DbgSalvaged
	d.LinesZeroed += e.LinesZeroed
	d.LinesChanged += e.LinesChanged
	d.RangesEnded += e.RangesEnded
}

// Sink collects telemetry. One sink is installed process-wide; all
// methods are safe for concurrent use.
type Sink struct {
	epoch time.Time
	// keepSpans is set for a sink whose spans a trace will export;
	// every other sink only counts them, so a long-lived process (tunerd)
	// does not pile up one record per pass run.
	keepSpans bool

	mu        sync.Mutex
	spans     []SpanRecord
	spanCount int
	counters  map[string]int64
	maxima    map[string]int64
	damage    map[DamageKey]*Damage
	foldFuncs bool // see FoldFuncs
}

// active is the process-global sink; nil means telemetry is disabled
// and every entry point is a single pointer-load no-op.
var active atomic.Pointer[Sink]

// NewSink creates a detached sink that counts spans but keeps no
// records of them (for tests that must not touch the process-global
// state, and for scoped collectors).
func NewSink() *Sink {
	return &Sink{
		epoch:    time.Now(),
		counters: map[string]int64{},
		maxima:   map[string]int64{},
		damage:   map[DamageKey]*Damage{},
	}
}

// NewTraceSink creates a detached sink that also keeps every span
// record, for WriteTrace.
func NewTraceSink() *Sink {
	s := NewSink()
	s.keepSpans = true
	return s
}

// Enable installs a fresh process-global sink (NewSink) and returns it.
func Enable() *Sink {
	s := NewSink()
	active.Store(s)
	return s
}

// Disable uninstalls the global sink, restoring the nil-sink fast path.
func Disable() { active.Store(nil) }

// Install makes s the process-global sink (nil disables) and returns
// the previously installed sink, so a scoped collector — the passreport
// table wants a ledger covering exactly its own builds — can swap its
// sink in and restore the caller's afterwards.
func Install(s *Sink) *Sink { return active.Swap(s) }

// Active returns the installed sink, or nil when telemetry is off.
func Active() *Sink { return active.Load() }

// Enabled reports whether a sink is installed.
func Enabled() bool { return active.Load() != nil }

// ---- Spans ----

// Span is an open interval; End records it. A nil *Span (telemetry
// disabled) is valid and every method on it is a no-op.
type Span struct {
	sink      *Sink
	name, cat string
	tid       int
	start     time.Time
}

// Begin opens a span against the active sink; it returns nil when
// telemetry is disabled, and nil spans absorb End calls for free.
func Begin(cat, name string) *Span {
	s := active.Load()
	if s == nil {
		return nil
	}
	return s.Begin(cat, name)
}

// Begin opens a span against this sink.
func (s *Sink) Begin(cat, name string) *Span {
	return &Span{sink: s, name: name, cat: cat, start: time.Now()}
}

// TID assigns the span to a virtual thread lane and returns it.
func (sp *Span) TID(tid int) *Span {
	if sp != nil {
		sp.tid = tid
	}
	return sp
}

// End closes the span: it counts it, and records it when the sink
// keeps spans.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	s := sp.sink
	if !s.keepSpans {
		s.mu.Lock()
		s.spanCount++
		s.mu.Unlock()
		return
	}
	now := time.Now()
	rec := SpanRecord{
		Name: sp.name, Cat: sp.cat, TID: sp.tid,
		Start: sp.start.Sub(s.epoch),
		Dur:   now.Sub(sp.start),
	}
	s.mu.Lock()
	s.spanCount++
	s.spans = append(s.spans, rec)
	s.mu.Unlock()
}

// ---- Counters ----

// Add increments a named counter on the active sink; no-op when
// telemetry is disabled.
func Add(name string, delta int64) {
	if s := active.Load(); s != nil {
		s.Add(name, delta)
	}
}

// Add increments a named counter.
func (s *Sink) Add(name string, delta int64) {
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// Max records the maximum observed value of a named gauge (queue
// depths, high-water marks) on the active sink.
func Max(name string, v int64) {
	if s := active.Load(); s != nil {
		s.Max(name, v)
	}
}

// Max records the maximum observed value of a named gauge.
func (s *Sink) Max(name string, v int64) {
	s.mu.Lock()
	if v > s.maxima[name] {
		s.maxima[name] = v
	}
	s.mu.Unlock()
}

// ---- Damage ledger ----

// AddDamage folds a damage delta into the (pass, function) cell of the
// active sink; no-op when telemetry is disabled.
func AddDamage(pass, fn string, d Damage) {
	if s := active.Load(); s != nil {
		s.AddDamage(pass, fn, d)
	}
}

// AddDamage folds a damage delta into the (pass, function) cell.
func (s *Sink) AddDamage(pass, fn string, d Damage) {
	s.mu.Lock()
	if s.foldFuncs {
		fn = foldedFunc
	}
	key := DamageKey{Pass: pass, Func: fn}
	cell := s.damage[key]
	if cell == nil {
		cell = &Damage{}
		s.damage[key] = cell
	}
	cell.add(d)
	s.mu.Unlock()
}

// foldedFunc is the function name of a folded ledger's cells.
const foldedFunc = "*"

// FoldFuncs makes the ledger keep one cell per pass, every function
// folded into the cell named "*", from now on and for the cells
// it already holds. A server's clients name their functions freely, so
// a per-function ledger would grow with every new name.
func (s *Sink) FoldFuncs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldFuncs = true
	for k, d := range s.damage {
		if k.Func == foldedFunc {
			continue
		}
		delete(s.damage, k)
		key := DamageKey{Pass: k.Pass, Func: foldedFunc}
		if cell := s.damage[key]; cell != nil {
			cell.add(*d)
		} else {
			s.damage[key] = d
		}
	}
}

// ---- Snapshots ----

// Counter returns one counter's current value.
func (s *Sink) Counter(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Counters returns a copy of all counters.
func (s *Sink) Counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		out[k] = v
	}
	return out
}

// Maxima returns a copy of all recorded maxima.
func (s *Sink) Maxima() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.maxima))
	for k, v := range s.maxima {
		out[k] = v
	}
	return out
}

// SpanCount returns the number of spans ended on the sink.
func (s *Sink) SpanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spanCount
}

// Spans returns a copy of the recorded spans; empty unless the sink
// keeps spans (NewTraceSink).
func (s *Sink) Spans() []SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanRecord(nil), s.spans...)
}

// Ledger returns a copy of the damage ledger.
func (s *Sink) Ledger() map[DamageKey]Damage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[DamageKey]Damage, len(s.damage))
	for k, v := range s.damage {
		out[k] = *v
	}
	return out
}

// DamageByPass aggregates the ledger over functions.
func (s *Sink) DamageByPass() map[string]Damage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]Damage{}
	for k, v := range s.damage {
		cell := out[k.Pass]
		cell.add(*v)
		out[k.Pass] = cell
	}
	return out
}
