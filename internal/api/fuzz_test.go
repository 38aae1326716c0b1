package api

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecodeTuneRequest locks the decoder's hostile-input contract:
// whatever bytes arrive, it returns either a valid normalized request
// or a typed error with a known code — it never panics and never
// returns both nil.
func FuzzDecodeTuneRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"profile":"gcc","level":"O2","units":[{"name":"a","source":"func main() { print(1); }"}]}`))
	f.Add([]byte(`{"v":2,"profile":"gcc","level":"O2","units":[]}`))
	f.Add([]byte(`{"v":1,"profile":"tcc","level":"O9","units":[{"name":"a","source":"x"}]}`))
	f.Add([]byte(`{"v":1,"profile":"gcc","level":"O2","dy":[0],"units":[{"name":"a","source":"x"}]}`))
	f.Add([]byte(`{"v":1,"unknown_field":true}`))
	f.Add([]byte(`{"v":1}{"v":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"v\":1,\"profile\":\"gcc\",\"level\":\"O2\",\"units\":[{\"name\":\"\\u0000\",\"source\":\"x\"}]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, aerr := DecodeTuneRequest(bytes.NewReader(data))
		checkDecodeOutcome(t, req == nil, aerr)
		if req != nil {
			if req.V != Version {
				t.Errorf("accepted request with v=%d", req.V)
			}
			if len(req.Dy) == 0 || len(req.Units) == 0 {
				t.Errorf("accepted request without dy/units: %+v", req)
			}
		}
	})
}

// FuzzDecodeReportRequest is the same contract for the report decoder.
func FuzzDecodeReportRequest(f *testing.F) {
	f.Add([]byte(`{"v":1,"units":[{"name":"a","source":"func main() { print(1); }"}]}`))
	f.Add([]byte(`{"v":1,"configs":"full","units":[{"name":"a","source":"x"}]}`))
	f.Add([]byte(`{"v":1,"configs":"` + strings.Repeat("x,", 600) + `","units":[{"name":"a","source":"x"}]}`))
	f.Add([]byte(`{"v":0}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, aerr := DecodeReportRequest(bytes.NewReader(data))
		checkDecodeOutcome(t, req == nil, aerr)
		if req != nil && req.Configs == "" {
			t.Error("accepted request without a configs default")
		}
	})
}

var knownCodes = map[string]bool{
	CodeBadRequest: true, CodeUnsupportedVersion: true, CodeInvalidArgument: true,
	CodeCompileError: true, CodeDraining: true,
	CodeInternal: true, CodeNotFound: true,
}

func checkDecodeOutcome(t *testing.T, reqNil bool, aerr *Error) {
	t.Helper()
	if reqNil == (aerr == nil) {
		t.Fatalf("decoder returned reqNil=%v, err=%v; want exactly one", reqNil, aerr)
	}
	if aerr != nil {
		if !knownCodes[aerr.Code] {
			t.Errorf("error with unknown code %q", aerr.Code)
		}
		if s := HTTPStatus(aerr.Code); s != 400 {
			t.Errorf("decode error %q maps to HTTP %d, want 400", aerr.Code, s)
		}
	}
}
