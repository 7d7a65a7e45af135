package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"binetrees/internal/obs"
)

// TestMetricsUnderLoad hammers /metrics while artifact requests run
// concurrently — the data-race audit of the metrics surface, meaningful under
// -race (CI runs this package with it). Correctness of the bodies is covered
// elsewhere; here every scrape just has to succeed while the counters, the
// pool and resident-trace gauges and the prewarm state churn — and /metrics
// has to carry the resolver-chain counters.
func TestMetricsUnderLoad(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{TraceDir: t.TempDir()})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
					t.Errorf("metrics: %d", code)
					return
				}
			}
		}()
	}
	for _, name := range []string{"fig1", "eq2", "appD", "fig1"} {
		if code, body := get(t, ts.URL+"/artifact/"+name); code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, code, body)
		}
	}
	close(stop)
	wg.Wait()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "binebench_synth_traces_total") ||
		!strings.Contains(body, `binebench_resolves_total{origin="synth"}`) {
		t.Fatalf("metrics lacks the resolver counters: %d\n%s", code, body)
	}
}

// TestReadiness pins the liveness/readiness split: /healthz is 200 from the
// first instant, /readyz holds 503 while the trace-store prewarm runs and
// flips to 200 with the prewarm footprint and duration once it completes.
func TestReadiness(t *testing.T) {
	gate := make(chan struct{})
	prewarmGate = func() { <-gate }
	defer func() { prewarmGate = nil }()
	srv, ts := newTestServer(t, Config{TraceDir: t.TempDir()})

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz while prewarming: %d %q", code, body)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before prewarm: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("readyz 503 Retry-After = %q, want 1", ra)
	}
	if srv.Ready() {
		t.Fatal("server reported ready before the prewarm finished")
	}

	close(gate)
	srv.Prewarm() // blocks until the background pass completes
	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz after prewarm: %d %q", code, body)
	}
	if !strings.Contains(body, "trace store prewarm:") || !strings.Contains(body, "prewarm took ") {
		t.Fatalf("readyz body lacks the prewarm report: %q", body)
	}
	if !srv.Ready() || srv.prewarmSeconds <= 0 {
		t.Fatalf("after prewarm: ready %v, prewarm took %vs", srv.Ready(), srv.prewarmSeconds)
	}
}

// TestRequestID pins propagation: a caller-supplied X-Request-ID echoes back
// on the response (success and error paths alike), and requests without one
// get a generated ID.
func TestRequestID(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{})
	do := func(path, sendID string) (*http.Response, string) {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sendID != "" {
			req.Header.Set("X-Request-ID", sendID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, resp.Header.Get("X-Request-ID")
	}
	if _, id := do("/artifact/fig1", "herd-42"); id != "herd-42" {
		t.Fatalf("supplied request ID not echoed: %q", id)
	}
	resp, id := do("/artifact/nope", "err-7")
	if resp.StatusCode != http.StatusNotFound || id != "err-7" {
		t.Fatalf("error path: %d, id %q", resp.StatusCode, id)
	}
	if _, id := do("/artifact/fig1", ""); !strings.HasPrefix(id, "req-") {
		t.Fatalf("no generated request ID: %q", id)
	}
	if _, id := do("/artifact/fig1", strings.Repeat("x", 200)); len(id) != 64 {
		t.Fatalf("oversized request ID not bounded: %d bytes", len(id))
	}
}

// TestMetricsEndpoint serves an experiment and scrapes /metrics: the core
// series of every pipeline stage and resolver origin must be present, in
// parseable Prometheus text form (every non-comment line is `name{labels}
// value`), with the serve histogram actually populated, and the resident
// trace gauges must read the server's Engine — until Close drops them. Not
// parallel: the gauges are backed by the newest live server.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code, body := get(t, ts.URL+"/artifact/fig1"); code != http.StatusOK {
		t.Fatalf("artifact: %d %s", code, body)
	}
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, s := range obs.Stages() {
		if !strings.Contains(body, fmt.Sprintf(`binebench_stage_seconds_count{stage="%s"}`, s)) {
			t.Errorf("stage series %q missing", s)
		}
	}
	for _, o := range obs.Origins() {
		if !strings.Contains(body, fmt.Sprintf(`binebench_resolve_seconds_count{origin="%s"}`, o)) {
			t.Errorf("resolve series %q missing", o)
		}
	}
	for _, series := range []string{
		"binebenchd_requests_total{code=\"200\"}",
		"binebenchd_serve_seconds_bucket{le=\"+Inf\"}",
		"binebenchd_response_bytes_total",
		"binebenchd_pool_queue_depth",
		"binebenchd_pool_workers",
		"binebenchd_ready",
		"binebench_synth_traces_total",
		"binebench_tracestore_loads_total{result=\"hit\"}",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("series %q missing from /metrics", series)
		}
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines++
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
			t.Fatalf("non-numeric sample %q: %v", line, err)
		}
	}
	if lines < 50 {
		t.Fatalf("suspiciously small exposition: %d samples", lines)
	}

	cache := srv.engine.Stats()
	resident := map[string]uint64{
		"binebenchd_resident_traces":      cache.CachedTraces,
		"binebenchd_resident_trace_bytes": cache.CachedBytes,
	}
	for series, want := range resident {
		got, ok := sample(body, series)
		if !ok || want == 0 || got != float64(want) {
			t.Errorf("%s = %v (exposed %v), engine reports %d", series, got, ok, want)
		}
	}
	srv.Close()
	var after strings.Builder
	obs.Default.WritePrometheus(&after)
	for series := range resident {
		if strings.Contains(after.String(), series) {
			t.Errorf("%s still exposed after Close", series)
		}
	}
}

// sample returns the value of the unlabelled series name in a Prometheus
// text exposition.
func sample(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && series == name {
			v, err := strconv.ParseFloat(value, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// expositionAtInit is the process-wide registry as a fresh process exposes
// it: init functions run after every package-level initializer and before
// any test.
var expositionAtInit string

func init() {
	var b strings.Builder
	obs.Default.WritePrometheus(&b)
	expositionAtInit = b.String()
}

// TestRequestCodeSeries pins the request counters' registration: all six
// status codes artifact can answer are exposed at 0 from process start
// (registered once at package init, not on first use) and on a fresh
// server's /metrics, and one unknown experiment plus one eq2 move exactly
// code="404" and code="200". Not parallel: the counters are process-wide, so
// it reads deltas while no other test is serving.
func TestRequestCodeSeries(t *testing.T) {
	const series = `binebenchd_requests_total{code="%s"} `
	codes := []string{"200", "400", "404", "429", "499", "500"}
	for _, code := range codes {
		if !strings.Contains(expositionAtInit, fmt.Sprintf(series, code)+"0\n") {
			t.Errorf("code=%q series not exposed at 0 at process start", code)
		}
	}
	_, ts := newTestServer(t, Config{})
	scrape := func() map[string]uint64 {
		t.Helper()
		_, body := get(t, ts.URL+"/metrics")
		counts := map[string]uint64{}
		for _, code := range codes {
			_, rest, ok := strings.Cut(body, fmt.Sprintf(series, code))
			if !ok {
				t.Fatalf("code=%q series missing from a fresh server's /metrics", code)
			}
			var n uint64
			if _, err := fmt.Sscanf(rest, "%d", &n); err != nil {
				t.Fatalf("code=%q sample does not parse: %v", code, err)
			}
			counts[code] = n
		}
		return counts
	}
	before := scrape()
	if code, _ := get(t, ts.URL+"/artifact/nonesuch"); code != http.StatusNotFound {
		t.Fatalf("unknown experiment answered %d", code)
	}
	if code, body := get(t, ts.URL+"/artifact/eq2"); code != http.StatusOK {
		t.Fatalf("eq2: %d %s", code, body)
	}
	after := scrape()
	for code, was := range before {
		want := was
		if code == "404" || code == "200" {
			want++
		}
		if after[code] != want {
			t.Errorf("code=%q went %d → %d, want %d", code, was, after[code], want)
		}
	}
}

// TestTracezTimeline is the stage-attribution pin: a served experiment's
// trace shows the serial compile → execute → render spans, and — because the
// leader runs them contiguously on the flight goroutine — their durations
// sum to the flight's wall time (within tolerance for scheduling noise); its
// per-cell stage aggregates count exactly the resolutions the Engine made.
func TestTracezTimeline(t *testing.T) {
	t.Parallel()
	srv, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest("GET", ts.URL+"/artifact/fig11b", nil)
	req.Header.Set("X-Request-ID", "tracez-pin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: %d", resp.StatusCode)
	}
	code, body := get(t, ts.URL+"/tracez")
	if code != http.StatusOK {
		t.Fatalf("tracez: %d", code)
	}
	var doc struct {
		Recent  []obs.TraceSummary `json:"recent"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("tracez not JSON: %v\n%s", err, body)
	}
	var tr *obs.TraceSummary
	for i := range doc.Recent {
		if doc.Recent[i].ID == "tracez-pin" {
			tr = &doc.Recent[i]
		}
	}
	if tr == nil {
		t.Fatalf("request trace absent from /tracez recent view: %s", body)
	}
	if len(doc.Slowest) == 0 {
		t.Fatal("slowest view empty after a served request")
	}
	spanMS := map[string]float64{}
	var sum float64
	for _, sp := range tr.Spans {
		if sp.Depth == 0 {
			spanMS[sp.Name] += sp.MS
			sum += sp.MS
		}
	}
	for _, want := range []obs.Stage{obs.StageCompile, obs.StageExecute, obs.StageRender} {
		if _, ok := spanMS[want.String()]; !ok {
			t.Errorf("span %q missing from timeline: %+v", want, tr.Spans)
		}
	}
	if tr.WallMS <= 0 {
		t.Fatalf("wall %.3fms", tr.WallMS)
	}
	// The three spans run back to back on the leader goroutine; the only
	// slack is flight bookkeeping. Generous bounds keep loaded CI green.
	if ratio := sum / tr.WallMS; ratio < 0.5 || ratio > 1.05 {
		t.Errorf("top-level spans sum to %.3fms of %.3fms wall (ratio %.2f)", sum, tr.WallMS, ratio)
	}
	// The server has served this one request, so its per-cell aggregates are
	// the Engine's counters: a resolution that ran outside the request's
	// context would be counted by the Engine and missing from the timeline.
	cache := srv.engine.Stats()
	if n := tr.Stages[obs.StageSynth.String()].Count; n == 0 || n != cache.SynthHits {
		t.Errorf("synth stage count %d, engine synthesized %d", n, cache.SynthHits)
	}
	if n := tr.Stages[obs.StageCacheLookup.String()].Count; n != cache.MemoryHits {
		t.Errorf("cache-lookup stage count %d, engine served %d memory hits", n, cache.MemoryHits)
	}
}

// TestAccessLog pins the structured log: one JSON line per request carrying
// the request ID, plan key, singleflight role, status, bytes, and the stage
// breakdown; parse errors are logged too, with their status and error.
func TestAccessLog(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	logw := &syncWriter{w: &buf}
	_, ts := newTestServer(t, Config{AccessLog: logw})
	req, _ := http.NewRequest("GET", ts.URL+"/artifact/fig1", nil)
	req.Header.Set("X-Request-ID", "log-pin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code, _ := get(t, ts.URL+"/artifact/bogus"); code != http.StatusNotFound {
		t.Fatalf("bogus artifact: %d", code)
	}
	var entries []accessEntry
	logw.mu.Lock()
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var e accessEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("access log line not JSON: %v\n%s", err, sc.Text())
		}
		entries = append(entries, e)
	}
	logw.mu.Unlock()
	if len(entries) != 2 {
		t.Fatalf("%d access log entries, want 2: %+v", len(entries), entries)
	}
	ok := entries[0]
	if ok.RequestID != "log-pin" || ok.Status != http.StatusOK || ok.Role != "leader" ||
		ok.Bytes == 0 || ok.PlanKey == "" || ok.Trace == nil || ok.DurMS <= 0 {
		t.Fatalf("success entry %+v", ok)
	}
	if _, has := findSpan(ok.Trace.Spans, obs.StageRender.String()); !has {
		t.Fatalf("success entry's trace lacks the render span: %+v", ok.Trace)
	}
	bad := entries[1]
	if bad.Status != http.StatusNotFound || bad.Error == "" || bad.RequestID == "" {
		t.Fatalf("error entry %+v", bad)
	}
}

// TestCloseUnregistersGauges pins the lifecycle of the scrape-time callback
// gauges: Close drops them from the process-wide registry, so a closed
// Server (and its Runner) is neither pinned by nor invoked from later
// scrapes — and a stale Close cannot drop a newer server's callbacks. Close
// is idempotent: a second call (a t.Cleanup after an explicit close) neither
// panics on the already-closed pool nor unregisters anything again.
func TestCloseUnregistersGauges(t *testing.T) {
	exposed := func() string {
		var b strings.Builder
		obs.Default.WritePrometheus(&b)
		return b.String()
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exposed(), "binebenchd_pool_workers") {
		t.Fatal("pool gauges absent while the server is live")
	}
	srv.Close()
	if body := exposed(); strings.Contains(body, "binebenchd_pool_workers") ||
		strings.Contains(body, "binebenchd_ready") {
		t.Fatalf("closed server's gauges still exposed:\n%s", body)
	}

	old, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	next, err := New(Config{}) // replaces old's callbacks
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	old.Close() // stale: must not drop next's registrations
	old.Close() // and closing twice is a no-op
	srv.Close()
	if !strings.Contains(exposed(), "binebenchd_pool_workers") {
		t.Fatal("closing a superseded server dropped the live server's gauges")
	}
}

func findSpan(spans []obs.SpanSummary, name string) (obs.SpanSummary, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			return sp, true
		}
	}
	return obs.SpanSummary{}, false
}

// syncWriter serializes writes so the test can read the buffer while the
// server may still be logging.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
