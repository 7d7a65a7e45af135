// Package service exposes the experiment harness as a long-running HTTP
// artifact service — the binebenchd daemon. Each /artifact request compiles
// the named experiment into the PR 3 plan form, drains its recording and
// evaluation cells on one resident process-wide pool.Runner, and streams the
// rendered artifact as it is produced; responses are byte-identical to the
// binebench CLI's files for the same request (pinned by tests and CI).
// Identical concurrent requests are deduplicated by singleflight on the
// compiled plan key, so a thundering herd resolves each schedule once —
// by direct synthesis from schedule math, with the goroutine fabric as the
// tests' oracle — through the server's own harness.Engine, and
// the shared -trace-cache directory is prewarmed (decode-validated, corrupt
// files evicted) in the background; /readyz reports 503 until that pass
// completes.
//
// Observability: every request carries a request ID (X-Request-ID, accepted
// or generated) and an obs.Trace whose serial spans (compile → execute →
// render) and parallel per-cell stage aggregates land in /tracez; the
// process-wide obs registry is served at /metrics in Prometheus text form;
// and each request emits one JSON access-log line with its stage breakdown
// and singleflight role.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/obs"
	"binetrees/internal/pool"
	"binetrees/internal/tracestore"
)

// Service-level metrics in the process-wide obs registry. Requests are
// counted per status code at response time (see obsRequests).
var (
	obsServeSeconds = obs.Default.Histogram("binebenchd_serve_seconds",
		"Whole-request latency of /artifact, parse to last byte.", nil)
	obsBytes = obs.Default.Counter("binebenchd_response_bytes_total",
		"Artifact bytes written to clients.")
	obsRenders = obs.Default.Counter("binebenchd_renders_total",
		"Plan executions performed (flight leaders).")
	obsJoins = obs.Default.Counter("binebenchd_flight_joins_total",
		"Requests served by joining an identical in-flight render.")
	obsFailures = obs.Default.Counter("binebenchd_failures_total",
		"Requests that surfaced a render error.")
)

// requestCounts holds one counter per status code artifact can answer,
// registered once at init so /metrics lists every code (at zero) from
// process start; the map is never mutated afterwards.
var requestCounts = func() map[int]*obs.Counter {
	m := map[int]*obs.Counter{}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
		http.StatusTooManyRequests, 499, http.StatusInternalServerError} {
		m[code] = obs.Default.Counter("binebenchd_requests_total",
			"Artifact requests answered, by HTTP status code.", "code", strconv.Itoa(code))
	}
	return m
}()

func obsRequests(code int) *obs.Counter { return requestCounts[code] }

// Config tunes a Server.
type Config struct {
	// TraceDir is the shared persistent trace store directory, prewarmed in
	// the background after New; empty serves from the server's in-process
	// cache only.
	TraceDir string
	// Workers bounds the resident Runner (<= 0: one per CPU; at most
	// pool.MaxWidth).
	Workers int
	// AccessLog, when non-nil, receives one JSON line per /artifact request:
	// request ID, plan key, singleflight role, status, bytes, duration, and
	// the request trace's stage breakdown. Writes are serialized.
	AccessLog io.Writer
	// MaxFlights bounds concurrent non-follower renders (<= 0: twice the
	// pool width, at least 4; at most pool.MaxWidth), and as many again may
	// wait for a render slot before further ones are shed with 429.
	// Followers joining an in-flight render never count against it.
	MaxFlights int
}

// Server is the artifact service: a resident worker pool, the Engine every
// request resolves its traces through, the singleflight table and the trace
// log behind /tracez. Servers share nothing but the process-wide obs
// registry, where every count the service keeps lives: each has its own
// trace cache and cache counters.
type Server struct {
	runner      *pool.Runner
	engine      *harness.Engine
	flights     flightGroup
	adm         *admission
	serveWindow *obs.Window // recent p95 behind Retry-After
	start       time.Time
	ctx         context.Context // bounds cell submission; cancelled by Close
	cancel      context.CancelFunc
	closeOnce   sync.Once

	// prewarm runs on its own goroutine so the listener binds immediately;
	// the stats fields are written exactly once before prewarmDone closes,
	// so any read after the channel is closed is race-free.
	prewarmDone    chan struct{}
	prewarm        tracestore.PrewarmStats
	prewarmErr     error
	prewarmSeconds float64

	traces     *obs.TraceLog
	logMu      sync.Mutex
	accessLog  io.Writer
	reqSeq     atomic.Uint64
	unregister []func() // drops this server's obs.Default gauge callbacks on Close
}

// New builds the server's Engine from cfg (trace store opened), kicks off the
// background prewarm pass, and returns a serving-ready Server owning a
// resident Runner. The server answers immediately; /readyz turns 200 once the
// prewarm completes.
func New(cfg Config) (*Server, error) {
	if err := errors.Join(pool.CheckWidth("workers", cfg.Workers), pool.CheckWidth("max flights", cfg.MaxFlights)); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	engine := &harness.Engine{}
	if cfg.TraceDir != "" {
		store, err := tracestore.Open(cfg.TraceDir)
		if err != nil {
			return nil, err
		}
		engine.Store = store
	}
	//binelint:ignore ctxflow server-lifetime root context, cancelled by Close; requests derive from it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		runner:      pool.NewRunner(cfg.Workers),
		engine:      engine,
		serveWindow: obs.NewWindow(obsServeSeconds, 30*time.Second),
		start:       time.Now(),
		ctx:         ctx,
		cancel:      cancel,
		prewarmDone: make(chan struct{}),
		traces:      obs.NewTraceLog(64),
		accessLog:   cfg.AccessLog,
	}
	maxFlights := cfg.MaxFlights
	if maxFlights <= 0 {
		// Two renders per worker keeps the pool fed while one flight is in a
		// serial (compile/render) phase; the floor of 4 keeps tiny hosts from
		// serializing a mixed workload entirely.
		maxFlights = 2 * s.runner.Workers()
		if maxFlights < 4 {
			maxFlights = 4
		}
	}
	s.adm = newAdmission(maxFlights)
	s.flights.adm = s.adm
	go func() {
		defer close(s.prewarmDone)
		if prewarmGate != nil {
			prewarmGate()
		}
		t0 := time.Now()
		s.prewarm, s.prewarmErr = engine.Store.Prewarm()
		s.prewarmSeconds = time.Since(t0).Seconds()
	}()
	s.registerGauges()
	return s, nil
}

// registerGauges exposes the server's live state as scrape-time callback
// gauges. Re-registration replaces the callbacks, so the newest Server backs
// the series; Close unregisters this server's callbacks (a no-op for any a
// later server has already replaced), so a closed Server and its Runner are
// not pinned by — or invoked from — subsequent scrapes.
func (s *Server) registerGauges() {
	st := func(f func(pool.RunnerStats) float64) func() float64 {
		return func() float64 { return f(s.runner.Stats()) }
	}
	gauge := func(name, help string, fn func() float64) {
		s.unregister = append(s.unregister, obs.Default.GaugeFunc(name, help, fn))
	}
	gauge("binebenchd_pool_workers",
		"Resident pool width.", st(func(r pool.RunnerStats) float64 { return float64(r.Workers) }))
	gauge("binebenchd_pool_queue_depth",
		"Cells submitted to the resident pool not yet started.", st(func(r pool.RunnerStats) float64 { return float64(r.QueueDepth) }))
	gauge("binebenchd_pool_inflight",
		"Cells currently executing on the resident pool.", st(func(r pool.RunnerStats) float64 { return float64(r.InFlight) }))
	gauge("binebenchd_pool_jobs_done",
		"Cells completed by the resident pool since start.", st(func(r pool.RunnerStats) float64 { return float64(r.JobsDone) }))
	gauge("binebenchd_pool_wait_seconds",
		"Cumulative submit-to-start wait across pool cells.", st(func(r pool.RunnerStats) float64 { return r.WaitSeconds }))
	gauge("binebenchd_pool_busy_seconds",
		"Cumulative execution time across pool cells.", st(func(r pool.RunnerStats) float64 { return r.BusySeconds }))
	gauge("binebenchd_flights_active",
		"Flights in the singleflight table (rendering or queued).", func() float64 { return float64(s.flights.active()) })
	gauge("binebenchd_flights_inflight",
		"Renders currently holding an admission token.", func() float64 { return float64(s.adm.inFlight()) })
	gauge("binebenchd_flights_waiting",
		"New flights queued for an admission token.", func() float64 { return float64(s.adm.waiting.Load()) })
	gauge("binebenchd_ready",
		"1 once the trace-store prewarm has completed.", func() float64 {
			if s.Ready() {
				return 1
			}
			return 0
		})
	gauge("binebenchd_uptime_seconds",
		"Seconds since the server was constructed.", func() float64 { return time.Since(s.start).Seconds() })
	gauge("binebenchd_resident_traces",
		"Traces resident in the server's in-process cache.", func() float64 { return float64(s.engine.Stats().CachedTraces) })
	gauge("binebenchd_resident_trace_bytes",
		"Columnar footprint of the resident traces.", func() float64 { return float64(s.engine.Stats().CachedBytes) })
}

// Ready reports whether the startup prewarm pass has completed — the /readyz
// condition.
func (s *Server) Ready() bool {
	select {
	case <-s.prewarmDone:
		return true
	default:
		return false
	}
}

// Prewarm blocks until the startup validation pass over the trace store has
// completed and reports it.
func (s *Server) Prewarm() tracestore.PrewarmStats {
	<-s.prewarmDone
	return s.prewarm
}

// Close stops new cell submission, drains the in-flight renders (which run
// detached from their requests and may still be submitting cells), and only
// then shuts the resident pool down — closing the pool under a live flight
// would panic its next submission. A second Close is a no-op.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		<-s.prewarmDone
		s.flights.wait()
		s.runner.Close()
		for _, unreg := range s.unregister {
			unreg()
		}
	})
}

// Handler returns the service's HTTP mux:
//
//	GET /artifact/{experiment}?systems=...&full=...  the artifact, streamed
//	GET /healthz                                     liveness (always 200)
//	GET /readyz                                      readiness: 503 until the
//	                                                 trace-store prewarm ends
//	GET /metrics                                     Prometheus text format
//	GET /tracez                                      recent + slowest request
//	                                                 timelines as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /artifact/{experiment}", s.artifact)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.Handle("GET /metrics", obs.Default.Handler())
	mux.HandleFunc("GET /tracez", s.tracez)
	return mux
}

// renderGate, when non-nil, blocks a flight leader before its plan executes.
// Test-only: it holds a render open until a herd of identical requests has
// piled onto the flight, making the singleflight assertions deterministic.
var renderGate func()

// prewarmGate, when non-nil, blocks the background prewarm pass before it
// starts. Test-only: it holds readiness closed so /readyz's 503 phase is
// observable deterministically.
var prewarmGate func()

// requestID returns the caller-supplied X-Request-ID (bounded, so a hostile
// header cannot bloat logs) or generates a process-unique one.
func (s *Server) requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-ID")); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	return "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// accessEntry is one JSON access-log line.
type accessEntry struct {
	Time      time.Time         `json:"time"`
	RequestID string            `json:"request_id"`
	Path      string            `json:"path"`
	PlanKey   string            `json:"plan_key,omitempty"`
	Role      string            `json:"role,omitempty"` // leader | follower
	Status    int               `json:"status"`
	Bytes     int64             `json:"bytes"`
	DurMS     float64           `json:"dur_ms"`
	Error     string            `json:"error,omitempty"`
	Trace     *obs.TraceSummary `json:"trace,omitempty"`
}

func (s *Server) logAccess(e accessEntry) {
	if s.accessLog == nil {
		return
	}
	buf, err := json.Marshal(e)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	s.logMu.Lock()
	s.accessLog.Write(buf)
	s.logMu.Unlock()
}

// maxEcho bounds how many bytes of a request-supplied string an error body
// repeats, so a megabyte URL cannot buy a megabyte response.
const maxEcho = 64

func echo(s string) string {
	if len(s) > maxEcho {
		return s[:maxEcho] + "..."
	}
	return s
}

// parseRequest validates an artifact request against the same rules as the
// binebench flags: any experiment name (or "all"), full as a boolean, and
// systems only meaningful — and only accepted — with "all". A parameter given
// twice is refused rather than resolved by position.
func parseRequest(r *http.Request) (name string, full bool, systems []string, code int, err error) {
	name = r.PathValue("experiment")
	known := name == "all"
	for _, n := range harness.ExperimentNames() {
		known = known || n == name
	}
	if !known {
		return "", false, nil, http.StatusNotFound, fmt.Errorf("unknown experiment %q", echo(name))
	}
	q := r.URL.Query()
	for _, param := range []string{"full", "systems"} {
		if len(q[param]) > 1 {
			return "", false, nil, http.StatusBadRequest, fmt.Errorf("parameter %s given %d times", param, len(q[param]))
		}
	}
	if v := q.Get("full"); v != "" {
		full, err = strconv.ParseBool(v)
		if err != nil {
			return "", false, nil, http.StatusBadRequest, fmt.Errorf("full=%q is not a boolean", echo(v))
		}
	}
	if v := q.Get("systems"); v != "" {
		if name != "all" {
			return "", false, nil, http.StatusBadRequest, fmt.Errorf("systems only applies to the all experiment")
		}
		// No valid key, trimmed as NormalizeSystems trims it, is longer than
		// maxEcho, so clipping changes no verdict, only how much of an
		// unknown key the error repeats.
		keys := strings.Split(v, ",")
		for i, k := range keys {
			keys[i] = echo(strings.TrimSpace(k))
		}
		// NormalizeSystems sorts and dedups, so the canonical form keys the
		// flight table: differently-ordered identical selections dedup too.
		systems, err = harness.NormalizeSystems(keys)
		if err != nil {
			return "", false, nil, http.StatusBadRequest, err
		}
	}
	return name, full, systems, 0, nil
}

func (s *Server) artifact(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	reqID := s.requestID(r)
	w.Header().Set("X-Request-ID", reqID)
	name, full, systems, code, err := parseRequest(r)
	if err != nil {
		http.Error(w, err.Error(), code)
		obsRequests(code).Inc()
		s.logAccess(accessEntry{Time: t0.UTC(), RequestID: reqID, Path: r.URL.Path,
			Status: code, DurMS: float64(time.Since(t0).Microseconds()) / 1e3, Error: err.Error()})
		return
	}
	opts := harness.Options{Quick: !full, Systems: systems, Engine: s.engine}
	key := fmt.Sprintf("%s|full=%v|systems=%s", name, full, strings.Join(systems, ","))
	// The flight trace belongs to the leader: its render goroutine runs the
	// serial compile → execute → render skeleton, so the span timeline sums
	// to the flight's wall time. Followers reuse the leader's trace in their
	// access-log lines; a follower's own trace is simply discarded.
	reqTrace := obs.NewTrace(reqID, key)
	b, joined, shed := s.flights.do(s.ctx, key, reqTrace, func(fctx context.Context, fw io.Writer) error {
		obsRenders.Inc()
		ctx := obs.WithTrace(fctx, reqTrace)
		defer func() {
			reqTrace.Finish()
			s.traces.Record(reqTrace)
		}()
		if renderGate != nil {
			renderGate()
		}
		_, endCompile := obs.StartSpan(ctx, obs.StageCompile)
		e, err := harness.CompileExperiment(name, opts)
		endCompile()
		if err != nil {
			return err
		}
		return e.Run(ctx, fw, s.runner, nil)
	})
	if shed {
		status := http.StatusTooManyRequests
		retry := s.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "overloaded: flight budget and wait queue are full, retry later", status)
		obsRequests(status).Inc()
		s.logAccess(accessEntry{Time: t0.UTC(), RequestID: reqID, Path: r.URL.Path,
			PlanKey: key, Role: "shed", Status: status,
			DurMS: float64(time.Since(t0).Microseconds()) / 1e3})
		return
	}
	// This request holds a reference on the flight until it stops streaming;
	// the last reference leaving an unfinished flight cancels its render.
	defer s.flights.release(key, b)
	role := "leader"
	if joined {
		obsJoins.Inc()
		role = "follower"
	}
	status := http.StatusOK
	var served int64
	var serveErr string
	defer func() {
		d := time.Since(t0)
		obs.ObserveStage(obs.StageServe, d)
		obsServeSeconds.Observe(d.Seconds())
		obsRequests(status).Inc()
		sum := b.trace.Summary()
		s.logAccess(accessEntry{Time: t0.UTC(), RequestID: reqID, Path: r.URL.Path,
			PlanKey: key, Role: role, Status: status, Bytes: served,
			DurMS: float64(d.Microseconds()) / 1e3, Error: serveErr, Trace: &sum})
	}()
	if err := b.waitReady(r.Context()); err != nil {
		if r.Context().Err() != nil {
			status = 499 // client gave up before the first byte
			return
		}
		obsFailures.Inc()
		status = http.StatusInternalServerError
		serveErr = err.Error()
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	n, err := b.streamTo(r.Context(), w)
	served = n
	obsBytes.Add(uint64(n))
	if err != nil && r.Context().Err() == nil {
		// The render failed mid-stream: the 200 header is out, so abort the
		// connection instead of passing a truncated body off as complete.
		// The deferred access-log line still runs while the panic unwinds;
		// record the failure status first so requests_total and the log line
		// count this as a 500, not the 200 the wire happened to see.
		obsFailures.Inc()
		status = http.StatusInternalServerError
		serveErr = err.Error()
		panic(http.ErrAbortHandler)
	}
	if r.Context().Err() != nil && err != nil {
		status = 499
		serveErr = err.Error()
	}
}

// retryAfter estimates how long a shed client should back off, in whole
// seconds: recent p95 serve latency scaled by the caller's notional queue
// position ((waiting+1) flights ahead, drained maxFlights at a time),
// clamped to [1, 60]. With no recent latency signal (cold start) it answers
// 1 — an optimistic retry beats a made-up wait.
func (s *Server) retryAfter() int {
	p95 := s.serveWindow.Quantile(0.95)
	if p95 <= 0 {
		return 1
	}
	est := p95 * float64(s.adm.waiting.Load()+1) / float64(s.adm.maxFlights)
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		// Prewarm is typically sub-second; tell probes when to come back
		// instead of leaving the retry cadence to client guesswork.
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "prewarming trace store\n")
		return
	}
	fmt.Fprintf(w, "ready\n%s\nprewarm took %.3fs\n", s.prewarm, s.prewarmSeconds)
	if s.prewarmErr != nil {
		// The store is tolerant by design: a failed prewarm degrades to
		// request-time misses, so the server is ready regardless — but the
		// error is worth surfacing.
		fmt.Fprintf(w, "prewarm error: %v\n", s.prewarmErr)
	}
}

func (s *Server) tracez(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.traces.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Recent  []obs.TraceSummary `json:"recent"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}{recent, slowest})
}
