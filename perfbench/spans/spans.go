// Package spans records the benchmark's replay trace: one span per call
// into a layer, kept in memory and written once at exit, and the
// self-time arithmetic that turns nested spans into per-layer seconds.
package spans

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one call into a layer. Start and End are nanoseconds since
// the recorder began; Parent is the enclosing span's ID, 0 for a root.
// Cell names the cell or request the call belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Recorder collects spans from one goroutine: the replay is serial, so
// the open spans form a stack and each new span's parent is its top.
type Recorder struct {
	epoch time.Time
	spans []Span
	open  []int // indexes into spans
	cell  string
}

// NewRecorder starts an empty trace whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// SetCell tags the spans begun from now on with a cell or request id.
func (r *Recorder) SetCell(cell string) { r.cell = cell }

// Begin opens a span and returns the function that closes it.
func (r *Recorder) Begin(name string) func() {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, Span{
		ID: idx + 1, Parent: parent, Name: name, Cell: r.cell,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].End = time.Since(r.epoch).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span { return r.spans }

// Replay is the file the traced replay writes at exit: its spans, its
// counts, and for serve each request's in-process Service.Tune time.
type Replay struct {
	Spans  []Span             `json:"spans"`
	Counts map[string]float64 `json:"counts"`
	TuneMS []float64          `json:"tune_ms,omitempty"`
}

// WriteFile writes r as JSON to path.
func WriteFile(path string, r *Replay) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile reads a file written by WriteFile.
func ReadFile(path string) (*Replay, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Replay
	return &r, json.Unmarshal(b, &r)
}

// Layer totals one span name: how many calls, and the time those calls
// spent outside their child spans.
type Layer struct {
	Calls  int
	SelfNS int64
}

// SelfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval its children cover; children
// are clipped to the parent and overlapping children count once, so a
// child that only partly covers its parent removes only that part.
func SelfTimes(spans []Span) map[string]Layer {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]Layer{}
	for _, s := range spans {
		l := out[s.Name]
		l.Calls++
		l.SelfNS += (s.End - s.Start) - covered(s, children[s.ID])
		out[s.Name] = l
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	first := true
	for _, v := range ivs {
		if first || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
			first = false
			continue
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
