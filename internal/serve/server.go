package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"debugtuner/internal/api"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/resilience"
	"debugtuner/internal/telemetry"
)

// Options configures the HTTP server.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// DrainGrace is the minimum window after Drain begins during which
	// the listener keeps answering new requests with the typed 503
	// "draining" error (so clients observe the drain instead of a
	// connection refused). 0 means 500ms.
	DrainGrace time.Duration
	// Budget is the per-run VM step budget (0 = DefaultBudget).
	Budget int64
}

func (o Options) drainGrace() time.Duration {
	if o.DrainGrace > 0 {
		return o.DrainGrace
	}
	return 500 * time.Millisecond
}

// cachedResp is one memoized response: the HTTP status plus the exact
// body bytes. Caching bytes (not structs) is what makes the
// byte-identical-responses guarantee trivially true for repeated
// requests, and it round-trips through the disk store like any other
// evalcache value.
type cachedResp struct {
	Status int    `json:"status"`
	Body   []byte `json:"body"`
}

// respKey declares every input of one stored response: the API
// version, the VM step budget, and the request's canonical key.
type respKey struct {
	API      int
	Budget   int64
	Endpoint string
	Digest   string
}

// computePanic is a panic captured at the compute boundary. It is
// Uncacheable so a panic is never pinned as the permanent answer for a
// request body, and capturing it ourselves matters doubly: sync.Once
// marks its entry done even when the function panics, so an
// unrecovered panic would leave a permanently-empty cache entry
// behind.
type computePanic struct {
	val   any
	stack []byte
}

func (p *computePanic) Error() string     { return fmt.Sprintf("request panicked: %v", p.val) }
func (p *computePanic) Uncacheable() bool { return true }

// Server is the tunerd HTTP server: response caching and a graceful
// drain around a Service.
type Server struct {
	Svc  *Service
	opts Options

	// draining flips once, under gate's write side; enter reads it and
	// registers in inflight under the read side. So every Add that
	// grows inflight from zero happens before Drain's Wait, as a
	// WaitGroup requires.
	gate     sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// resp memoizes full responses by canonical request key, with
	// single-flight coalescing across concurrent identical requests.
	// computing tracks keys whose compute closure is live, so the
	// hit/coalesced telemetry split is observable at the response level.
	resp      evalcache.Cache[respKey, cachedResp]
	computing sync.Map

	httpSrv *http.Server
	ln      net.Listener
}

// New returns a server over a fresh Service. When a process store is
// installed (evalcache.SetDefaultDisk), responses persist across
// restarts under tunerd.resp. Clients name their functions freely, so
// the installed telemetry sink's damage ledger is folded to one cell
// per pass (FoldFuncs) and stops growing with each new name.
func New(opts Options) *Server {
	if snk := telemetry.Active(); snk != nil {
		snk.FoldFuncs()
	}
	return &Server{
		Svc:  &Service{Budget: opts.Budget},
		opts: opts,
		resp: evalcache.Cache[respKey, cachedResp]{Namespace: "tunerd.resp"},
	}
}

// Handler returns the server's routing handler (also used directly by
// httptest-based tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tune", func(w http.ResponseWriter, r *http.Request) {
		s.servePost(w, r, "tune", func(body io.Reader) (cachedResp, *api.Error) {
			req, aerr := api.DecodeTuneRequest(body)
			if aerr != nil {
				return cachedResp{}, aerr
			}
			return s.cached("tune", req, func() (*api.Envelope, error) {
				res, err := s.Svc.Tune(req)
				if err != nil {
					return nil, err
				}
				return &api.Envelope{Kind: "tune", Tune: res}, nil
			})
		})
	})
	mux.HandleFunc("/v1/pareto", func(w http.ResponseWriter, r *http.Request) {
		s.servePost(w, r, "pareto", func(body io.Reader) (cachedResp, *api.Error) {
			req, aerr := api.DecodeTuneRequest(body)
			if aerr != nil {
				return cachedResp{}, aerr
			}
			return s.cached("pareto", req, func() (*api.Envelope, error) {
				res, err := s.Svc.Pareto(req)
				if err != nil {
					return nil, err
				}
				return &api.Envelope{Kind: "pareto", Pareto: res}, nil
			})
		})
	})
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		s.servePost(w, r, "report", func(body io.Reader) (cachedResp, *api.Error) {
			req, aerr := api.DecodeReportRequest(body)
			if aerr != nil {
				return cachedResp{}, aerr
			}
			return s.cached("report", req, func() (*api.Envelope, error) {
				res, err := s.Svc.Report(req)
				if err != nil {
					return nil, err
				}
				return &api.Envelope{Kind: "report", Report: res}, nil
			})
		})
	})
	mux.HandleFunc("/debug/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/quarantine", s.serveQuarantine)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &api.Error{Code: api.CodeNotFound,
			Msg: fmt.Sprintf("no endpoint %s", r.URL.Path)})
	})
	return mux
}

// cached returns the memoized response for (endpoint, normalized
// request), computing and caching it on a miss. Identical concurrent
// requests coalesce onto one computation (evalcache single-flight);
// typed compute errors are deterministic verdicts on the body and cache
// like results; panics are Uncacheable and retriable.
func (s *Server) cached(endpoint string, req any, compute func() (*api.Envelope, error)) (cachedResp, *api.Error) {
	rk := api.CanonicalKey(endpoint, req)
	key := respKey{API: api.Version, Budget: s.Svc.budget(), Endpoint: rk.Endpoint, Digest: rk.Digest}
	_, wasComputing := s.computing.Load(key)
	computed := false
	cr, err := s.resp.Do(key, func() (cr cachedResp, err error) {
		computed = true
		s.computing.Store(key, struct{}{})
		defer s.computing.Delete(key)
		defer func() {
			if p := recover(); p != nil {
				telemetry.Add("tunerd.panics", 1)
				err = &computePanic{val: p, stack: debug.Stack()}
			}
		}()
		env, err := compute()
		if err != nil {
			// A typed api error is a deterministic verdict on this body:
			// marshal it once and let it cache like a result. Everything
			// else propagates (quarantine errors are Uncacheable and
			// evict themselves).
			if aerr, ok := err.(*api.Error); ok {
				body, merr := api.MarshalEnvelope(&api.Envelope{Kind: "error", Error: aerr})
				if merr != nil {
					return cachedResp{}, merr
				}
				return cachedResp{Status: api.HTTPStatus(aerr.Code), Body: body}, nil
			}
			return cachedResp{}, err
		}
		body, merr := api.MarshalEnvelope(env)
		if merr != nil {
			return cachedResp{}, merr
		}
		return cachedResp{Status: http.StatusOK, Body: body}, nil
	})
	switch {
	case computed:
		telemetry.Add("tunerd.cache.miss", 1)
	case wasComputing:
		telemetry.Add("tunerd.cache.coalesced", 1)
	default:
		telemetry.Add("tunerd.cache.hit", 1)
	}
	if err != nil {
		switch e := err.(type) {
		case *computePanic:
			return cachedResp{}, &api.Error{Code: api.CodeInternal, Msg: e.Error()}
		case *api.Error:
			return cachedResp{}, e
		default:
			if resilience.IsQuarantined(err) {
				return cachedResp{}, &api.Error{Code: api.CodeInternal,
					Msg: fmt.Sprintf("computation quarantined: %v", err)}
			}
			return cachedResp{}, &api.Error{Code: api.CodeInternal, Msg: err.Error()}
		}
	}
	return cr, nil
}

// enter registers a request as in flight, which Drain waits for, and
// reports true; once Drain has begun it registers nothing and reports
// false.
func (s *Server) enter() bool {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

// servePost is the shared POST wrapper: drain gate, in-flight
// accounting, and envelope writing.
func (s *Server) servePost(w http.ResponseWriter, r *http.Request, name string,
	handle func(body io.Reader) (cachedResp, *api.Error)) {
	telemetry.Add("tunerd.requests", 1)
	telemetry.Add("tunerd.requests."+name, 1)
	if !s.enter() {
		telemetry.Add("tunerd.drained503", 1)
		writeError(w, &api.Error{Code: api.CodeDraining, Msg: "server is draining"})
		return
	}
	defer s.inflight.Done()
	if r.Method != http.MethodPost {
		writeError(w, &api.Error{Code: api.CodeBadRequest,
			Msg: fmt.Sprintf("%s requires POST", r.URL.Path)})
		return
	}
	cr, aerr := handle(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes+1))
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(cr.Status)
	w.Write(cr.Body)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if s.enter() {
		defer s.inflight.Done()
	}
	snk := telemetry.Active()
	if snk == nil {
		writeError(w, &api.Error{Code: api.CodeInternal, Msg: "telemetry sink not installed"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snk.WriteMetrics(w)
}

func (s *Server) serveQuarantine(w http.ResponseWriter, r *http.Request) {
	if s.enter() {
		defer s.inflight.Done()
	}
	var recs []api.QuarantineRecord
	if ex := resilience.Active(); ex != nil {
		recs = api.QuarantineRecordsFrom(ex.Quarantined())
	}
	writeEnvelope(w, http.StatusOK, &api.Envelope{Kind: "quarantine", Quarantine: recs})
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func writeEnvelope(w http.ResponseWriter, status int, env *api.Envelope) {
	body, err := api.MarshalEnvelope(env)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, aerr *api.Error) {
	writeEnvelope(w, api.HTTPStatus(aerr.Code), &api.Envelope{Kind: "error", Error: aerr})
}

// Start listens and serves in the background, returning the bound
// address (resolving :0 ephemeral ports).
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 30 * time.Second}
	go s.httpSrv.Serve(ln)
	return ln.Addr().String(), nil
}

// Drain shuts down gracefully: new requests get the typed 503
// "draining" error, in-flight requests run to completion, and the
// listener stays up for at least the DrainGrace window (so clients see
// the 503 instead of a connection refused) before closing. The context
// bounds the total wait; on expiry the server closes anyway.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.Lock()
	first := s.draining.CompareAndSwap(false, true)
	s.gate.Unlock()
	if !first {
		return nil
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if rem := s.opts.drainGrace() - time.Since(start); rem > 0 {
		t := time.NewTimer(rem)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	if s.httpSrv != nil {
		return s.httpSrv.Close()
	}
	return nil
}
