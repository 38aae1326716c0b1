// Package api is the versioned wire format of the DebugTuner service:
// typed, JSON-stable DTOs shared by the tunerd server, its client, and
// the text renderers of cmd/debugtuner and cmd/experiments. Everything
// that crosses the HTTP boundary — requests, results, errors — is one
// of these structs inside the explicit `"v":1` envelope, so CLI output
// and server responses are rendered from the same values and can never
// drift.
//
// Wire-format rules (the "v1 contract", locked by golden-file tests):
//
//   - Every request and response carries `"v": 1`. A request with a
//     different (or missing) version is rejected with the typed error
//     code "unsupported_version"; a future breaking change bumps the
//     constant and adds a new decoder, it never mutates these structs.
//   - DTOs contain no maps: field order is fixed by the struct, slices
//     are sorted by their producers, so marshaling is byte-
//     deterministic — the property the server's response cache and the
//     ci.sh determinism gate rely on.
//   - Additive evolution only within v1: new optional fields may be
//     added (old readers ignore them on responses), but existing field
//     names, types, and meanings are frozen. Request decoding rejects
//     unknown fields, making any accidental wire change an explicit
//     test diff.
package api

import "fmt"

// Version is the wire-format version this package speaks.
const Version = 1

// Error is the typed wire error. Code is machine-readable (see the
// Code* constants), Msg is human-readable detail. It implements error
// so the service layer can return it directly.
type Error struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

// Wire error codes. The HTTP status is derived from the code (see
// HTTPStatus), not the other way around, so clients can switch on a
// stable vocabulary.
const (
	// CodeBadRequest: the body is not valid JSON for the endpoint's
	// request DTO.
	CodeBadRequest = "bad_request"
	// CodeUnsupportedVersion: the request's "v" is not Version.
	CodeUnsupportedVersion = "unsupported_version"
	// CodeInvalidArgument: well-formed JSON, semantically invalid
	// (unknown profile, empty unit list, oversized source, ...).
	CodeInvalidArgument = "invalid_argument"
	// CodeCompileError: a unit failed the MiniC front end.
	CodeCompileError = "compile_error"
	// CodeDraining: the server is shutting down gracefully and accepts
	// no new work.
	CodeDraining = "draining"
	// CodeInternal: the computation failed (budget exhaustion, trace
	// failure, quarantine-wrapped panic, ...).
	CodeInternal = "internal"
	// CodeNotFound: unknown endpoint.
	CodeNotFound = "not_found"
)

// HTTPStatus maps a wire error code to its HTTP status.
func HTTPStatus(code string) int {
	switch code {
	case CodeBadRequest, CodeUnsupportedVersion, CodeInvalidArgument, CodeCompileError:
		return 400
	case CodeNotFound:
		return 404
	case CodeDraining:
		return 503
	default:
		return 500
	}
}

// Envelope is the one response wrapper. Exactly one of the payload
// pointers is set, named by Kind ("tune", "pareto", "report",
// "quarantine", "error").
type Envelope struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Tune       *TuneResult        `json:"tune,omitempty"`
	Pareto     *ParetoResult      `json:"pareto,omitempty"`
	Report     *DebugReport       `json:"report,omitempty"`
	Quarantine []QuarantineRecord `json:"quarantine,omitempty"`
	Error      *Error             `json:"error,omitempty"`
}

// Unit is one MiniC compilation unit submitted for tuning or reporting.
type Unit struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// TuneRequest asks for a DebugTuner analysis of the submitted units:
// the pass ranking at (Profile, Level) and the Ox-dy configuration
// family built from it. The same request shape drives /v1/pareto.
type TuneRequest struct {
	V       int    `json:"v"`
	Profile string `json:"profile"`
	Level   string `json:"level"`
	// Dy lists the Ox-dy sizes to construct; default 3,5,7,9.
	Dy    []int  `json:"dy,omitempty"`
	Units []Unit `json:"units"`
}

// RankedPass is one row of the cross-program pass ranking.
type RankedPass struct {
	Rank    int    `json:"rank"`
	Name    string `json:"name"`
	Display string `json:"display"`
	Backend bool   `json:"backend,omitempty"`
	// AvgRank is the mean per-program rank position; +Inf (fully
	// quarantined, no measurement survived) is encoded as -1 because
	// JSON has no infinities.
	AvgRank         float64 `json:"avg_rank"`
	GeoIncrementPct float64 `json:"geo_increment_pct"`
}

// TunedConfig is one configuration's identity and suite-average scores.
type TunedConfig struct {
	Name string `json:"name"`
	// Disabled lists the disabled pass toggles, sorted.
	Disabled []string `json:"disabled,omitempty"`
	// Product is the suite-average hybrid product metric.
	Product float64 `json:"product"`
	// DeltaPct is the product change versus the reference level, in
	// percent (0 for the reference itself).
	DeltaPct float64 `json:"delta_pct"`
	// Speedup, when present, is the measured speedup (suite geomean
	// over -O0 for server results; SPEC-average for debugtuner -perf).
	Speedup *float64 `json:"speedup,omitempty"`
}

// DeltaPct returns TunedConfig.DeltaPct for a configuration whose
// suite-average product is avg, against the reference product ref. A
// reference that is not positive admits no relative change; the delta
// is then 0.
func DeltaPct(avg, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return 100 * (avg - ref) / ref
}

// TuneResult is the /v1/tune response payload.
type TuneResult struct {
	Profile string `json:"profile"`
	Level   string `json:"level"`
	// Subjects are the analyzed unit names, in request order.
	Subjects []string `json:"subjects"`
	// Positive/Neutral/Negative count passes by average effect.
	Positive int `json:"positive"`
	Neutral  int `json:"neutral"`
	Negative int `json:"negative"`
	// Ranking is the full pass ranking, best first.
	Ranking []RankedPass `json:"ranking"`
	// Reference is the unmodified level's scores.
	Reference TunedConfig `json:"reference"`
	// Configs is the Ox-dy family, one per requested dy.
	Configs []TunedConfig `json:"configs"`
	// QuarantinedSubjects/QuarantinedCells surface resilience gaps; the
	// coordinates above exclude them rather than silently absorbing
	// them.
	QuarantinedSubjects []string `json:"quarantined_subjects,omitempty"`
	QuarantinedCells    int      `json:"quarantined_cells,omitempty"`
}

// ParetoPoint is one configuration in the debuggability/performance
// plane.
type ParetoPoint struct {
	Label   string  `json:"label"`
	Debug   float64 `json:"debug"`
	Speedup float64 `json:"speedup"`
	// OnFront marks Pareto-optimal points.
	OnFront bool `json:"on_front"`
	// Quarantined marks configurations whose measurement was lost; the
	// coordinates are meaningless and the point joins no front.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ParetoResult is the /v1/pareto response payload.
type ParetoResult struct {
	Profile string `json:"profile"`
	Level   string `json:"level"`
	// Points holds every evaluated configuration in evaluation order
	// (plain levels first, then the Ox-dy family).
	Points []ParetoPoint `json:"points"`
	// FrontSize is the size of the non-dominated subset (after
	// coincident-duplicate collapse, matching tuner.ParetoFront).
	FrontSize int `json:"front_size"`
	// QuarantinedSubjects names the subjects (units, suite programs or
	// benchmarks) with a quarantined measurement on an axis: that axis
	// averages the others in every point.
	QuarantinedSubjects []string `json:"quarantined_subjects,omitempty"`
}

// ReportRequest asks for a debuggability report over the submitted
// units: the difftest behavior/invariant oracle plus the staticdbg
// verify-each static analysis, per configuration.
type ReportRequest struct {
	V int `json:"v"`
	// Configs is a difftest matrix spec ("full", "levels", or a comma
	// list like "gcc-O2,clang-O3*"); default "levels".
	Configs string `json:"configs,omitempty"`
	Units   []Unit `json:"units"`
}

// Finding is one debuggability defect: a difftest behavior mismatch,
// a debug-info invariant violation, a static verify-each violation, or
// a quarantine gap. Kind carries difftest's vocabulary ("behavior",
// "invariant", "reference", "quarantine") plus "static".
type Finding struct {
	Subject string `json:"subject"`
	Config  string `json:"config"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail"`
}

// StaticStat is one (subject, config) verify-each outcome: metadata
// survival from the front-end baseline to the emitted binary.
type StaticStat struct {
	Subject    string `json:"subject"`
	Config     string `json:"config"`
	BaseLines  int    `json:"base_lines"`
	BaseVars   int    `json:"base_vars"`
	FinalLines int    `json:"final_lines"`
	FinalVars  int    `json:"final_vars"`
	Violations int    `json:"violations"`
}

// DebugReport is the /v1/report response payload.
type DebugReport struct {
	// Subjects are the reported unit names, in request order.
	Subjects []string `json:"subjects"`
	// Configs names the evaluated configuration matrix.
	Configs []string `json:"configs"`
	// Findings lists every defect, in (subject, matrix) order.
	Findings []Finding `json:"findings"`
	// Mismatches counts behavior/reference findings; Violations counts
	// invariant + static findings.
	Mismatches int `json:"mismatches"`
	Violations int `json:"violations"`
	// Static holds the per-cell survival table, in (subject, config)
	// order.
	Static []StaticStat `json:"static"`
	// Quarantined lists cells the resilience layer gave up on.
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
}

// QuarantineRecord is the wire form of a quarantined resilience cell
// (resilience.CellError).
type QuarantineRecord struct {
	Key      string `json:"key"`
	Kind     string `json:"kind"`
	Attempts int    `json:"attempts"` // always 1: a cell runs once
	Pass     string `json:"pass,omitempty"`
	Err      string `json:"err"`
}
