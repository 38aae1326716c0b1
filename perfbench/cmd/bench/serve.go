package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"debugtuner/perfbench/gen"
	"debugtuner/perfbench/stats"
)

// requestsPerSecond sizes the serve workload: a run sends this many
// distinct requests per second of --seconds (at least minRequests), so
// the request set depends on the seed and --seconds only, never on the
// program's speed. At the commit that defined the benchmark a miss took
// about 110 ms on average on a 2-CPU host.
const (
	requestsPerSecond = 8
	minRequests       = 100 // p90 needs ten samples beyond it
	digestRequests    = 100 // the committed digest covers this prefix
	serveSetups       = 5   // tunerd spawns per run; setup_s is their median
	hitsPerRequest    = 3   // cache-hit resends after each miss
)

// server is one running tunerd.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	out    bytes.Buffer // stdout after the listening line
	done   chan struct{}
}

// startTunerd spawns tunerd on an ephemeral port with the given cache
// directory and returns once /healthz answers, with the set-up time.
func startTunerd(e *env, cache string) (*server, float64, error) {
	start := time.Now()
	cmd := exec.Command(filepath.Join(e.bin, "tunerd"), "-addr", "127.0.0.1:0", "-cachedir", cache)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tunerd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n') // a short read leaves addr unset
		addr <- strings.TrimPrefix(strings.TrimSpace(line), "tunerd listening on ")
		io.Copy(&s.out, r) // drain until exit so tunerd never blocks on stdout
	}()
	fail := func(err error) (*server, float64, error) {
		cmd.Process.Kill()
		<-s.done // Wait closes stdout, so the reader must finish first
		cmd.Wait()
		return nil, 0, err
	}
	var a string
	select {
	case a = <-addr:
	case <-time.After(20 * time.Second):
		return fail(fmt.Errorf("tunerd printed no listening line"))
	}
	if a == "" || strings.Contains(a, " ") {
		return fail(fmt.Errorf("tunerd did not come up"))
	}
	s.base = "http://" + a
	// One keep-alive connection carries every request: the load is one
	// closed-loop client.
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		},
	}
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 20*time.Second {
			return fail(fmt.Errorf("tunerd /healthz never answered: %v", err))
		}
		time.Sleep(500 * time.Microsecond)
	}
	return s, time.Since(start).Seconds(), nil
}

// post sends one body to /v1/tune and returns the status and response.
func (s *server) post(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/tune", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a GET endpoint such as /debug/metrics.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// stop sends SIGTERM, waits for tunerd's drained exit and returns its
// resource usage.
func (s *server) stop() (proc, error) {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return proc{}, err
	}
	waited := make(chan error, 1)
	go func() { <-s.done; waited <- s.cmd.Wait() }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-waited
		return proc{}, fmt.Errorf("tunerd did not drain within 30s")
	}
	p := usage(s.cmd.ProcessState)
	p.Stdout = s.out.Bytes()
	return p, nil
}

// envelope is the part of a v1 response the checks read.
type envelope struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Tune *struct {
		Profile             string            `json:"profile"`
		Level               string            `json:"level"`
		Subjects            []string          `json:"subjects"`
		Ranking             []json.RawMessage `json:"ranking"`
		QuarantinedSubjects []string          `json:"quarantined_subjects"`
		QuarantinedCells    int               `json:"quarantined_cells"`
	} `json:"tune"`
	Error *struct {
		Code string `json:"code"`
		Msg  string `json:"msg"`
	} `json:"error"`
}

// checkEnvelope requires a well-formed v1 tune result for rq with no
// quarantined subject or cell.
func checkEnvelope(status int, body []byte, rq gen.Request) error {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("status %d, malformed envelope: %v", status, err)
	}
	t := env.Tune
	switch {
	case env.Error != nil:
		return fmt.Errorf("status %d, error %s: %s", status, env.Error.Code, env.Error.Msg)
	case status != http.StatusOK:
		return fmt.Errorf("status %d", status)
	case env.V != 1 || env.Kind != "tune" || t == nil:
		return fmt.Errorf("not a v1 tune envelope (v=%d kind=%q)", env.V, env.Kind)
	case len(t.QuarantinedSubjects) > 0 || t.QuarantinedCells > 0:
		return fmt.Errorf("quarantined: subjects %v, %d cells", t.QuarantinedSubjects, t.QuarantinedCells)
	case t.Profile != rq.Profile || t.Level != rq.Level:
		return fmt.Errorf("result for %s/%s, asked %s/%s", t.Profile, t.Level, rq.Profile, rq.Level)
	case len(t.Subjects) != 1 || t.Subjects[0] != rq.Units[0].Name:
		return fmt.Errorf("subjects %v, asked %s", t.Subjects, rq.Units[0].Name)
	case len(t.Ranking) == 0:
		return fmt.Errorf("empty pass ranking")
	}
	return nil
}

// tune sends one request and checks its envelope.
func (s *server) tune(ctx context.Context, rq gen.Request, body []byte) (time.Duration, []byte, error) {
	t0 := time.Now()
	status, resp, err := s.post(ctx, body)
	d := time.Since(t0)
	if err == nil {
		err = checkEnvelope(status, resp, rq)
	}
	return d, resp, err
}

// pass sends every body once, in order, and returns per-request
// latencies in ms (+Inf for a failed request), the bodies received, the
// pass's wall time from first send to last response, and why requests
// failed.
func (s *server) pass(ctx context.Context, reqs []gen.Request, bodies [][]byte) (lat []float64, got [][]byte, wall time.Duration, problems []string) {
	start := time.Now()
	for i, body := range bodies {
		d, resp, err := s.tune(ctx, reqs[i], body)
		if err != nil {
			lat = append(lat, inf)
			problems = append(problems, fmt.Sprintf("request %d: %v", i, err))
		} else {
			lat = append(lat, ms(d))
		}
		got = append(got, resp)
	}
	return lat, got, time.Since(start), problems
}

// inputs are the run's requests: requestsPerSecond per second of
// --seconds, at least minRequests.
func inputs(e *env) ([]gen.Request, [][]byte) {
	reqs := gen.Requests(e.seed, max(minRequests, int(requestsPerSecond*e.seconds+0.5)))
	return reqs, gen.Bodies(reqs)
}

// serve starts a fresh tunerd on a fresh -cachedir and sends it the
// seed's distinct /v1/tune requests over one keep-alive connection.
// Each request is first a response-cache miss; its latencies sum to
// wall_s, the cold pass. Right after each miss the same body is resent
// hitsPerRequest times, each a cache hit; the median hit latency of each
// request, summed, is warm_s: the time to answer the whole request set
// again from the cache. Interleaving spreads the hits over the run, so
// warm_s averages the host's drift as wall_s does. Set-up is spawn until
// /healthz answers, over serveSetups spawns of which the last serves the
// run. minimal (the traced run's reference) makes one spawn.
func serve(e *env, minimal bool) (*runStats, error) {
	reqs, bodies := inputs(e)
	cache := filepath.Join(e.dir, "cache")
	s := &runStats{}
	setups := serveSetups
	if minimal {
		setups = 1
	}

	var srv *server
	for i := 0; i < setups; i++ {
		var setup float64
		var err error
		if srv, setup, err = startTunerd(e, cache); err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, setup)
		if i < setups-1 {
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	var cold [][]byte
	var warm float64
	for i, body := range bodies {
		d, resp, err := srv.tune(e.ctx, reqs[i], body)
		s.attempted++
		if err != nil {
			s.latMS = append(s.latMS, inf)
			s.fail(1, "request %d: %v", i, err)
		} else {
			s.latMS = append(s.latMS, ms(d))
			s.wallS += d.Seconds()
		}
		cold = append(cold, resp)
		hits := make([]float64, hitsPerRequest)
		for h := range hits {
			t0 := time.Now()
			status, again, err := srv.post(e.ctx, body)
			hits[h] = time.Since(t0).Seconds()
			s.attempted++
			if err != nil || status != http.StatusOK || !bytes.Equal(again, resp) {
				hits[h] = inf
				s.fail(1, "request %d: cache hit %d differs from the miss (status %d, %v)", i, h, status, err)
			}
		}
		warm += stats.Median(hits)
	}
	s.warmS = []float64{warm}
	if e.seed == 1 {
		if err := e.checkDigest("serve_seed1", bytes.Join(cold[:digestRequests], nil)); err != nil {
			s.fail(digestRequests, "%v", err)
		}
	}
	p, err := srv.stop()
	if err != nil {
		return nil, err
	}
	s.addProc(p)
	s.cpuS = p.CPU.Seconds()
	if p.Code != 0 {
		s.fail(0, "tunerd exited %d", p.Code)
	}
	return s, nil
}
