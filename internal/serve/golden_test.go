package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"debugtuner/internal/api"
)

var update = flag.Bool("update", false, "rewrite the response goldens under testdata")

// TestResponseGoldens pins the bodies tunerd answers for testdata/fib.mc
// on /v1/tune and /v1/pareto at gcc O1 and on /v1/report over
// gcc-O0,gcc-O2, byte for byte. ci.sh compares `tunerd-client -raw`
// output from a running tunerd against the same files. Regenerate them
// with `go test ./internal/serve -run TestResponseGoldens -update`; any
// change to them must be explained.
func TestResponseGoldens(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "fib.mc"))
	if err != nil {
		t.Fatal(err)
	}
	units := []api.Unit{{Name: "fib", Source: string(src)}}
	tune := api.TuneRequest{V: api.Version, Profile: "gcc", Level: "O1", Units: units}
	h := New(Options{}).Handler()
	for _, tc := range []struct {
		golden, path string
		req          any
	}{
		{"tune-gcc-O1", "/v1/tune", tune},
		{"pareto-gcc-O1", "/v1/pareto", tune},
		{"report-gcc-O0-gcc-O2", "/v1/report",
			api.ReportRequest{V: api.Version, Configs: "gcc-O0,gcc-O2", Units: units}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := post(t, h, tc.path, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s)", tc.path, resp.StatusCode, got)
		}
		path := filepath.Join("testdata", tc.golden+".golden.json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response drifted from %s\n got: %s\nwant: %s", tc.path, path, got, want)
		}
	}
}
