package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"debugtuner/internal/api"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
)

const testSource = `func fib(n: int): int {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}

func main() {
	print(fib(12));
}
`

func tuneBody(name string) string {
	return fmt.Sprintf(
		`{"v":1,"profile":"gcc","level":"O1","units":[{"name":%q,"source":%q}]}`,
		name, testSource)
}

func post(t *testing.T, h http.Handler, path, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	resp := rr.Result()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeErr(t *testing.T, raw []byte) *api.Error {
	t.Helper()
	env, err := api.DecodeEnvelope(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("response is not an envelope: %v (%s)", err, raw)
	}
	if env.Error == nil {
		t.Fatalf("expected an error envelope, got kind %q", env.Kind)
	}
	return env.Error
}

// TestTuneEndToEnd drives a real tune computation through the handler
// and checks the core serving contract: a valid response envelope, and
// byte-identical bodies for repeated identical requests with the second
// served from the response cache.
func TestTuneEndToEnd(t *testing.T) {
	if telemetry.Active() == nil {
		telemetry.Enable()
	}
	h := New(Options{}).Handler()
	resp1, raw1 := post(t, h, "/v1/tune", tuneBody("fib"))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: HTTP %d: %s", resp1.StatusCode, raw1)
	}
	env, err := api.DecodeEnvelope(bytes.NewReader(raw1))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "tune" || env.Tune == nil {
		t.Fatalf("envelope kind %q, want tune payload", env.Kind)
	}
	if got := env.Tune.Subjects; len(got) != 1 || got[0] != "fib" {
		t.Errorf("subjects %v, want [fib]", got)
	}
	if len(env.Tune.Ranking) == 0 || len(env.Tune.Configs) == 0 {
		t.Errorf("tune result missing ranking/configs: %+v", env.Tune)
	}

	hit0 := telemetry.Active().Counter("tunerd.cache.hit")
	resp2, raw2 := post(t, h, "/v1/tune", tuneBody("fib"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: HTTP %d", resp2.StatusCode)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Error("identical requests returned different bytes")
	}
	if got := telemetry.Active().Counter("tunerd.cache.hit"); got != hit0+1 {
		t.Errorf("cache hits %d, want %d (second identical request must hit)", got, hit0+1)
	}

	// Whitespace and field-order variants normalize onto the same cache
	// entry and therefore the same bytes.
	variant := `{
  "units": [{"source": ` + fmt.Sprintf("%q", testSource) + `, "name": "fib"}],
  "level": "O1",
  "profile": "gcc",
  "v": 1
}`
	_, raw3 := post(t, h, "/v1/tune", variant)
	if !bytes.Equal(raw1, raw3) {
		t.Error("reordered-field request returned different bytes")
	}
}

// TestSingleFlight fires identical concurrent requests and checks they
// coalesce onto one computation.
func TestSingleFlight(t *testing.T) {
	if telemetry.Active() == nil {
		telemetry.Enable()
	}
	h := New(Options{}).Handler()
	miss0 := telemetry.Active().Counter("tunerd.cache.miss")
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/tune",
				strings.NewReader(tuneBody("flight")))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent identical requests diverged at %d", i)
		}
	}
	if got := telemetry.Active().Counter("tunerd.cache.miss") - miss0; got != 1 {
		t.Errorf("%d computations for %d identical concurrent requests, want 1", got, n)
	}
}

// TestDeterministicAcrossServers locks the acceptance property that
// response bytes do not depend on server instance or cache state: a
// fresh server (cold cache) and a warmed one agree byte for byte.
func TestDeterministicAcrossServers(t *testing.T) {
	_, a := post(t, New(Options{}).Handler(), "/v1/tune", tuneBody("det"))
	_, b := post(t, New(Options{}).Handler(), "/v1/tune", tuneBody("det"))
	if !bytes.Equal(a, b) {
		t.Error("two fresh servers returned different bytes for one request")
	}
}

// TestTypedErrors runs under a fresh executor, so a request the service
// cannot serve must be rejected up front, not quarantined as a failed
// cell.
func TestTypedErrors(t *testing.T) {
	ex := resilience.NewExecutor(nil)
	defer resilience.Install(resilience.Install(ex))
	h := New(Options{}).Handler()
	noMain := `{"v":1,"profile":"gcc","level":"O1","units":[{"name":"lib","source":"func f(): int { return 1; }"}]}`
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed", "/v1/tune", `{not json`, 400, api.CodeBadRequest},
		{"unknown field", "/v1/tune", `{"v":1,"bogus":1}`, 400, api.CodeBadRequest},
		{"wrong version", "/v1/tune", `{"v":9,"profile":"gcc","level":"O1","units":[{"name":"a","source":"x"}]}`, 400, api.CodeUnsupportedVersion},
		{"bad profile", "/v1/tune", `{"v":1,"profile":"tcc","level":"O1","units":[{"name":"a","source":"x"}]}`, 400, api.CodeInvalidArgument},
		{"no units", "/v1/report", `{"v":1,"units":[]}`, 400, api.CodeInvalidArgument},
		{"compile error", "/v1/tune", `{"v":1,"profile":"gcc","level":"O1","units":[{"name":"a","source":"not minic"}]}`, 400, api.CodeCompileError},
		{"bad matrix", "/v1/report", fmt.Sprintf(`{"v":1,"configs":"nope-O9","units":[{"name":"a","source":%q}]}`, testSource), 400, api.CodeInvalidArgument},
		{"tune without main", "/v1/tune", noMain, 400, api.CodeInvalidArgument},
		{"pareto without main", "/v1/pareto", noMain, 400, api.CodeInvalidArgument},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, h, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			aerr := decodeErr(t, raw)
			if aerr.Code != tc.code {
				t.Errorf("code %q, want %q", aerr.Code, tc.code)
			}
			if tc.body == noMain && !strings.Contains(aerr.Msg, `"lib"`) {
				t.Errorf("message %q does not name the unit", aerr.Msg)
			}
		})
	}
	if qs := ex.Quarantined(); len(qs) > 0 {
		t.Errorf("rejected requests quarantined %d cell(s), first %s", len(qs), qs[0].Key)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/tune", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 400 {
		t.Errorf("GET on POST endpoint: HTTP %d, want 400", rr.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/nope", nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 404 {
		t.Errorf("unknown endpoint: HTTP %d, want 404", rr.Code)
	}
}

// TestPanicQuarantine: a compute panic becomes a typed 500, does not
// kill the process, and is not pinned in the response cache.
func TestPanicQuarantine(t *testing.T) {
	s := New(Options{})
	calls := 0
	boom := func() (*api.Envelope, error) {
		calls++
		if calls == 1 {
			panic("synthetic cell failure")
		}
		return &api.Envelope{Kind: "tune", Tune: &api.TuneResult{Profile: "gcc"}}, nil
	}
	_, aerr := s.cached("tune", map[string]string{"k": "panic-test"}, boom)
	if aerr == nil || aerr.Code != api.CodeInternal {
		t.Fatalf("panic surfaced as %+v, want internal error", aerr)
	}
	cr, aerr := s.cached("tune", map[string]string{"k": "panic-test"}, boom)
	if aerr != nil {
		t.Fatalf("retry after panic: %v — panic was cached", aerr)
	}
	if cr.Status != http.StatusOK {
		t.Fatalf("retry status %d", cr.Status)
	}
}

// TestDrain locks the graceful-shutdown contract: after Drain begins,
// new requests get the typed 503 "draining" error while the listener
// stays up for the grace window, and Drain returns cleanly.
func TestDrain(t *testing.T) {
	s := New(Options{DrainGrace: 200 * time.Millisecond})
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := api.NewClient(addr)
	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Within the grace window the listener must answer with the typed
	// draining error rather than refusing connections.
	deadline := time.Now().Add(150 * time.Millisecond)
	saw503 := false
	for time.Now().Before(deadline) {
		_, _, err := c.Tune(&api.TuneRequest{
			Profile: "gcc", Level: "O1",
			Units: []api.Unit{{Name: "d", Source: testSource}},
		})
		if aerr, ok := err.(*api.Error); ok && aerr.Code == api.CodeDraining {
			saw503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw503 {
		t.Error("no typed draining rejection observed during the grace window")
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestDrainWhileRequestsArrive: requests keep arriving while Drain waits
// for the in-flight ones. None may register as in flight once Drain's
// wait can have begun, or the WaitGroup grows from zero under Wait — a
// misuse the race detector reports. Run under -race via ci.sh.
func TestDrainWhileRequestsArrive(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := New(Options{DrainGrace: time.Millisecond})
		h := s.Handler()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/quarantine", nil))
					h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/tune", strings.NewReader("{}")))
				}
			}()
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// loopThenTail spends its first few hundred VM steps in a loop, so a
// small step budget truncates its traces before the tail runs.
const loopThenTail = `func main() {
	var acc: int = 0;
	for (var i: int = 0; i < 200; i = i + 1) {
		acc = acc + i * 3;
	}
	var tail: int = acc % 7;
	var more: int = tail * tail + acc;
	print(tail);
	print(more);
}
`

// TestTuneBudgetKeyed: the step budget changes trace truncation and so
// the answer. A response, measurement or matrix cell computed under one
// budget must not answer the same request under another, in memory or
// through a shared disk store.
func TestTuneBudgetKeyed(t *testing.T) {
	d, err := evalcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	body := fmt.Sprintf(`{"v":1,"profile":"gcc","level":"O2","units":[{"name":"budgeted","source":%q}]}`,
		loopThenTail)
	tune := func(budget int64) *api.TuneResult {
		t.Helper()
		resp, raw := post(t, New(Options{Budget: budget}).Handler(), "/v1/tune", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("budget %d: HTTP %d: %s", budget, resp.StatusCode, raw)
		}
		env, err := api.DecodeEnvelope(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return env.Tune
	}
	full, short := tune(0), tune(500)
	if full.Reference.Product == short.Reference.Product {
		t.Fatalf("budgets 500 and default share reference product %.4f: a cached answer crossed budgets",
			full.Reference.Product)
	}
	if again := tune(500); !reflect.DeepEqual(again, short) {
		t.Fatal("a restarted budget-500 server answered differently from its disk store")
	}
}

// TestLedgerFoldsClientFuncs: a server's damage ledger keeps one cell
// per pass, so units that differ only in their function names leave
// /debug/metrics with as many damage rows as the first one did.
func TestLedgerFoldsClientFuncs(t *testing.T) {
	defer telemetry.Install(telemetry.Install(telemetry.NewSink()))
	h := New(Options{}).Handler()
	src, err := os.ReadFile("testdata/fib.mc")
	if err != nil {
		t.Fatal(err)
	}
	rows := func() int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/metrics", nil))
		var m struct {
			Damage []telemetry.DamageRow `json:"damage"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return len(m.Damage)
	}
	first := 0
	for i := -1; i < 8; i++ {
		name := "fib"
		if i >= 0 {
			name = fmt.Sprintf("fib%d", i)
		}
		body := fmt.Sprintf(`{"v":1,"profile":"gcc","level":"O1","units":[{"name":%q,"source":%q}]}`,
			name, strings.ReplaceAll(string(src), "fib", name))
		if resp, raw := post(t, h, "/v1/tune", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", name, resp.StatusCode, raw)
		}
		switch n := rows(); {
		case i < 0:
			first = n
			if n == 0 {
				t.Fatal("no damage rows after the first request")
			}
		case n != first:
			t.Errorf("after %s: %d damage rows, want %d as after the first request", name, n, first)
		}
	}
}

// TestTuneProgramsQuarantinePolicy runs the tune computation shared by
// tunerd and cmd/debugtuner under chaos (rate 0.08, seed 7), which
// quarantines two references (bzip2, libssh) among its faulted cells.
// The result must still come back. It names those subjects, and its
// reference mean covers exactly the others.
func TestTuneProgramsQuarantinePolicy(t *testing.T) {
	subjects, err := testsuite.LoadAll(testsuite.CorpusOptions{Execs: 20})
	if err != nil {
		t.Fatal(err)
	}
	progs := testsuite.Programs(subjects)
	defer resilience.Install(resilience.Install(resilience.NewExecutor(&resilience.Chaos{Rate: 0.08, Seed: 7})))
	res, _, err := TunePrograms(progs, "gcc", "O1", []int{3})
	if err != nil {
		t.Fatalf("a quarantined subject voided the result: %v", err)
	}
	want := []string{"bzip2", "libssh"}
	if !reflect.DeepEqual(res.QuarantinedSubjects, want) {
		t.Fatalf("quarantined subjects %v, want %v", res.QuarantinedSubjects, want)
	}
	dead := map[string]bool{}
	for _, n := range want {
		dead[n] = true
	}
	sum, n := 0.0, 0
	for _, p := range progs {
		if !dead[p.Name] {
			m, err := p.Product(pipeline.MustConfig(pipeline.GCC, "O1"))
			if err != nil {
				t.Fatal(err)
			}
			sum += m
			n++
		}
	}
	if got := sum / float64(n); res.Reference.Product != got {
		t.Errorf("reference mean %v, want %v over the %d live subjects", res.Reference.Product, got, n)
	}
}

// TestParetoQuarantinePolicy runs /v1/pareto's computation under chaos
// (rate 0.08, seed 3) over ten renamed copies of testdata/fib.mc. Each
// axis is one suite set: a unit with a quarantined product or timing,
// an O0 timing included, is named and left out of that axis, and every
// point keeps its coordinates from the other units instead of failing
// the request or turning into a gap.
func TestParetoQuarantinePolicy(t *testing.T) {
	src, err := os.ReadFile("testdata/fib.mc")
	if err != nil {
		t.Fatal(err)
	}
	req := &api.TuneRequest{V: 1, Profile: "gcc", Level: "O1", Dy: []int{3}}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("fib%d", i)
		req.Units = append(req.Units, api.Unit{Name: name,
			Source: strings.ReplaceAll(string(src), "fib", name)})
	}
	defer resilience.Install(resilience.Install(resilience.NewExecutor(&resilience.Chaos{Rate: 0.08, Seed: 3})))
	res, err := (&Service{}).Pareto(req)
	if err != nil {
		t.Fatalf("a quarantined cell failed the request: %v", err)
	}
	if len(res.QuarantinedSubjects) == 0 {
		t.Fatal("no unit was left out; the test exercises no policy")
	}
	for _, pt := range res.Points {
		if pt.Quarantined {
			t.Errorf("point %s is a gap though units are left on both axes", pt.Label)
		}
	}
}

// TestCyclesKeyedByFingerprint: two configs of one unit that share a
// Name ("gcc-O2-d3") but disable different passes are two timing
// cells, so under a chaos rate of 1 both quarantine.
func TestCyclesKeyedByFingerprint(t *testing.T) {
	p, err := tuner.LoadProgram("fib", []byte(testSource), nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := pipeline.EnabledPasses(pipeline.GCC, "O2")
	a := pipeline.MustConfig(pipeline.GCC, "O2", pipeline.Disable(ps[0], ps[1], ps[2]))
	b := pipeline.MustConfig(pipeline.GCC, "O2", pipeline.Disable(ps[0], ps[1], ps[3]))
	if a.Name() != b.Name() {
		t.Fatalf("names %s and %s differ; the test needs one shared name", a.Name(), b.Name())
	}
	ex := resilience.NewExecutor(&resilience.Chaos{Rate: 1})
	defer resilience.Install(resilience.Install(ex))
	for _, cfg := range []pipeline.Config{a, b} {
		if _, err := (&Service{}).cycles(p, cfg); !resilience.IsQuarantined(err) {
			t.Fatalf("%s %v: err %v, want a quarantine", cfg.Name(), cfg.Disabled, err)
		}
	}
	if n := len(ex.Quarantined()); n != 2 {
		t.Errorf("%d quarantined timing cells, want 2", n)
	}
}
