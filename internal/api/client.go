package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the v1 wire format to a tunerd server. It returns both
// the decoded payload and the raw response body, so callers that need
// byte-level comparisons (the ci.sh determinism gate) see exactly what
// the server sent.
type Client struct {
	// Base is the server base URL, e.g. "http://127.0.0.1:8347".
	Base string
}

// httpClient has a 10-minute timeout: tune requests do real compiler work.
var httpClient = &http.Client{Timeout: 10 * time.Minute}

// NewClient returns a client for the given base URL (scheme optional;
// "host:port" is normalized to http).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{Base: strings.TrimRight(base, "/")}
}

// post marshals req, POSTs it, and returns the raw response body.
// Wire-level errors (transport, non-JSON bodies) are returned as plain
// errors; a well-formed envelope is returned to the caller even when it
// carries a typed Error payload.
func (c *Client) post(path string, req any) (*Envelope, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := httpClient.Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxRequestBytes*4))
	if err != nil {
		return nil, nil, err
	}
	env, err := DecodeEnvelope(bytes.NewReader(raw))
	if err != nil {
		return nil, raw, fmt.Errorf("%s: HTTP %d: %w", path, resp.StatusCode, err)
	}
	return env, raw, nil
}

// get fetches a path and returns the raw body.
func (c *Client) get(path string) ([]byte, error) {
	resp, err := httpClient.Get(c.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxRequestBytes*4))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return raw, nil
}

// Tune runs /v1/tune. A typed server error is returned as *Error.
func (c *Client) Tune(req *TuneRequest) (*TuneResult, []byte, error) {
	req.V = Version
	env, raw, err := c.post("/v1/tune", req)
	if err != nil {
		return nil, raw, err
	}
	if env.Error != nil {
		return nil, raw, env.Error
	}
	if env.Tune == nil {
		return nil, raw, fmt.Errorf("/v1/tune: envelope kind %q has no tune payload", env.Kind)
	}
	return env.Tune, raw, nil
}

// Pareto runs /v1/pareto.
func (c *Client) Pareto(req *TuneRequest) (*ParetoResult, []byte, error) {
	req.V = Version
	env, raw, err := c.post("/v1/pareto", req)
	if err != nil {
		return nil, raw, err
	}
	if env.Error != nil {
		return nil, raw, env.Error
	}
	if env.Pareto == nil {
		return nil, raw, fmt.Errorf("/v1/pareto: envelope kind %q has no pareto payload", env.Kind)
	}
	return env.Pareto, raw, nil
}

// Report runs /v1/report.
func (c *Client) Report(req *ReportRequest) (*DebugReport, []byte, error) {
	req.V = Version
	env, raw, err := c.post("/v1/report", req)
	if err != nil {
		return nil, raw, err
	}
	if env.Error != nil {
		return nil, raw, env.Error
	}
	if env.Report == nil {
		return nil, raw, fmt.Errorf("/v1/report: envelope kind %q has no report payload", env.Kind)
	}
	return env.Report, raw, nil
}

// Metrics fetches the raw /debug/metrics JSON summary.
func (c *Client) Metrics() ([]byte, error) { return c.get("/debug/metrics") }

// Quarantine fetches the server's quarantined-cell list.
func (c *Client) Quarantine() ([]QuarantineRecord, []byte, error) {
	raw, err := c.get("/debug/quarantine")
	if err != nil {
		return nil, raw, err
	}
	env, err := DecodeEnvelope(bytes.NewReader(raw))
	if err != nil {
		return nil, raw, err
	}
	if env.Error != nil {
		return nil, raw, env.Error
	}
	return env.Quarantine, raw, nil
}

// Healthz reports whether the server is accepting work.
func (c *Client) Healthz() error {
	_, err := c.get("/healthz")
	return err
}
