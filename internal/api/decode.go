package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"debugtuner/internal/pipeline"
)

// Request-shape limits. Oversized inputs are a typed invalid_argument,
// never an allocation hazard.
const (
	// MaxRequestBytes bounds a request body.
	MaxRequestBytes = 8 << 20
	// MaxUnits bounds the compilation units per request.
	MaxUnits = 64
	// MaxUnitBytes bounds one unit's source.
	MaxUnitBytes = 256 << 10
	// MaxDy bounds one Ox-dy size.
	MaxDy = 64
)

// DefaultDy is the Ox-dy family constructed when a request leaves Dy
// empty — the paper's standard sizes.
var DefaultDy = []int{3, 5, 7, 9}

// decode reads at most MaxRequestBytes of JSON into dst, rejecting
// unknown fields so wire changes surface as explicit errors instead of
// silent drops.
func decode(r io.Reader, dst any) *Error {
	data, err := io.ReadAll(io.LimitReader(r, MaxRequestBytes+1))
	if err != nil {
		return &Error{Code: CodeBadRequest, Msg: fmt.Sprintf("reading body: %v", err)}
	}
	if len(data) > MaxRequestBytes {
		return &Error{Code: CodeInvalidArgument,
			Msg: fmt.Sprintf("request exceeds %d bytes", MaxRequestBytes)}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return &Error{Code: CodeBadRequest, Msg: fmt.Sprintf("decoding request: %v", err)}
	}
	// Trailing garbage after the JSON value is a malformed body too.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return &Error{Code: CodeBadRequest, Msg: "trailing data after JSON body"}
	}
	return nil
}

// checkUnits validates the shared unit-list constraints.
func checkUnits(units []Unit) *Error {
	if len(units) == 0 {
		return &Error{Code: CodeInvalidArgument, Msg: "at least one unit is required"}
	}
	if len(units) > MaxUnits {
		return &Error{Code: CodeInvalidArgument,
			Msg: fmt.Sprintf("%d units exceeds the limit of %d", len(units), MaxUnits)}
	}
	seen := map[string]bool{}
	for i, u := range units {
		if u.Name == "" {
			return &Error{Code: CodeInvalidArgument, Msg: fmt.Sprintf("unit %d: empty name", i)}
		}
		if len(u.Name) > 128 {
			return &Error{Code: CodeInvalidArgument, Msg: fmt.Sprintf("unit %d: name too long", i)}
		}
		for _, c := range u.Name {
			ok := c == '_' || c == '-' || c == '.' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
			if !ok {
				return &Error{Code: CodeInvalidArgument,
					Msg: fmt.Sprintf("unit %q: names are limited to [A-Za-z0-9_.-]", u.Name)}
			}
		}
		if seen[u.Name] {
			return &Error{Code: CodeInvalidArgument, Msg: fmt.Sprintf("duplicate unit name %q", u.Name)}
		}
		seen[u.Name] = true
		if u.Source == "" {
			return &Error{Code: CodeInvalidArgument, Msg: fmt.Sprintf("unit %q: empty source", u.Name)}
		}
		if len(u.Source) > MaxUnitBytes {
			return &Error{Code: CodeInvalidArgument,
				Msg: fmt.Sprintf("unit %q: source exceeds %d bytes", u.Name, MaxUnitBytes)}
		}
	}
	return nil
}

// checkVersion enforces the explicit envelope version.
func checkVersion(v int) *Error {
	if v != Version {
		return &Error{Code: CodeUnsupportedVersion,
			Msg: fmt.Sprintf("request version %d, server speaks %d", v, Version)}
	}
	return nil
}

// validProfile reports whether p names a known compiler personality.
func validProfile(p string) bool {
	return p == string(pipeline.GCC) || p == string(pipeline.Clang)
}

// validLevel reports whether level exists for the profile.
func validLevel(p pipeline.Profile, level string) bool {
	for _, l := range pipeline.Levels(p) {
		if l == level {
			return true
		}
	}
	return false
}

// DecodeTuneRequest reads, validates, and normalizes a TuneRequest.
// On any failure it returns a typed *Error (bad_request for malformed
// JSON, unsupported_version, or invalid_argument) — it never panics on
// hostile input, which the fuzz target locks.
func DecodeTuneRequest(r io.Reader) (*TuneRequest, *Error) {
	var req TuneRequest
	if e := decode(r, &req); e != nil {
		return nil, e
	}
	if e := checkVersion(req.V); e != nil {
		return nil, e
	}
	if !validProfile(req.Profile) {
		return nil, &Error{Code: CodeInvalidArgument,
			Msg: fmt.Sprintf("unknown profile %q (want gcc or clang)", req.Profile)}
	}
	if !validLevel(pipeline.Profile(req.Profile), req.Level) {
		return nil, &Error{Code: CodeInvalidArgument,
			Msg: fmt.Sprintf("unknown level %q for profile %s", req.Level, req.Profile)}
	}
	if len(req.Dy) == 0 {
		req.Dy = append([]int(nil), DefaultDy...)
	}
	if len(req.Dy) > 16 {
		return nil, &Error{Code: CodeInvalidArgument, Msg: "more than 16 dy sizes"}
	}
	for _, y := range req.Dy {
		if y < 1 || y > MaxDy {
			return nil, &Error{Code: CodeInvalidArgument,
				Msg: fmt.Sprintf("dy %d out of range [1,%d]", y, MaxDy)}
		}
	}
	if e := checkUnits(req.Units); e != nil {
		return nil, e
	}
	return &req, nil
}

// DecodeReportRequest reads, validates, and normalizes a ReportRequest.
func DecodeReportRequest(r io.Reader) (*ReportRequest, *Error) {
	var req ReportRequest
	if e := decode(r, &req); e != nil {
		return nil, e
	}
	if e := checkVersion(req.V); e != nil {
		return nil, e
	}
	if req.Configs == "" {
		req.Configs = "levels"
	}
	if len(req.Configs) > 1024 {
		return nil, &Error{Code: CodeInvalidArgument, Msg: "configs spec too long"}
	}
	if e := checkUnits(req.Units); e != nil {
		return nil, e
	}
	return &req, nil
}

// RequestKey content-addresses a normalized request for the response
// cache.
type RequestKey struct {
	Endpoint string
	Digest   string // hex SHA-256 of the canonical re-marshaling
}

// CanonicalKey keys a request by endpoint × the canonical re-marshaling
// of the decoded struct. Two requests that differ only in JSON
// whitespace, field order, or defaulted fields share one key, so
// concurrent identical requests single-flight onto one computation.
func CanonicalKey(endpoint string, req any) RequestKey {
	data, err := json.Marshal(req)
	if err != nil {
		// DTOs are plain data; marshal cannot fail. Guard anyway.
		data = []byte(fmt.Sprintf("%#v", req))
	}
	sum := sha256.Sum256(data)
	return RequestKey{Endpoint: endpoint, Digest: hex.EncodeToString(sum[:])}
}

// MarshalEnvelope renders a response envelope to its canonical wire
// bytes: compact JSON plus a trailing newline. Every server response
// body comes from here, so identical payloads are byte-identical.
func MarshalEnvelope(env *Envelope) ([]byte, error) {
	env.V = Version
	data, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeEnvelope parses a response body. A payload whose Error field is
// set decodes successfully — the caller decides how to surface it.
func DecodeEnvelope(r io.Reader) (*Envelope, error) {
	var env Envelope
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBytes*4))
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding response envelope: %w", err)
	}
	if env.V != Version {
		return nil, fmt.Errorf("response version %d, client speaks %d", env.V, Version)
	}
	return &env, nil
}

// SortedNames returns the keys of a set, sorted — the one way a
// disabled-pass set becomes a wire slice.
func SortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
