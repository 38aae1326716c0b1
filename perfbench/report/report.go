// Package report owns the benchmark's two output formats: the JSON
// result line the benchmark contract reads, and the context line that
// records the host a run saw.
package report

import "encoding/json"

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Context is what a run records about its host so a spread can be
// traced back to it. None of it is gated.
type Context struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	RunS       float64  `json:"run_s"`
	StealS     *float64 `json:"steal_s,omitempty"` // absent without /proc/stat
}

// Line renders v as one line of JSON.
func Line(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}
