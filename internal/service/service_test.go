package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"binetrees/internal/fabric"
	"binetrees/internal/harness"
	"binetrees/internal/pool"
	"binetrees/internal/tracestore"
)

// newTestServer builds a Server from cfg — cold, with an Engine of its own —
// behind an httptest frontend, and closes both when the test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// accessTally is an access-log sink counting what its server logged: lines
// by singleflight role ("" for a request refused before the flight table)
// and by status, and the artifact bytes they report. The server writes one
// whole JSON line per Write.
type accessTally struct {
	mu     sync.Mutex
	roles  map[string]int
	codes  map[int]int
	served int64
}

func (a *accessTally) Write(p []byte) (int, error) {
	var e accessEntry
	if err := json.Unmarshal(p, &e); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.roles == nil {
		a.roles, a.codes = map[string]int{}, map[int]int{}
	}
	a.roles[e.Role]++
	a.codes[e.Status]++
	a.served += e.Bytes
	return len(p), nil
}

func (a *accessTally) role(r string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.roles[r]
}

func (a *accessTally) code(c int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.codes[c]
}

func (a *accessTally) bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.served
}

// attached counts the requests holding a reference on an in-table flight:
// leaders and the followers that joined them.
func attached(g *flightGroup) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, b := range g.m {
		n += b.refs
	}
	return n
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestArtifactByteIdentity pins the serving contract: every quick-mode
// experiment — and the systems-selected "all" aggregate — is served
// byte-identical to what the binebench CLI writes for the same request.
// The CLI reference renders share one Engine of their own, the server has
// its own: the bytes agree with nothing shared between the two sides.
func TestArtifactByteIdentity(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{})
	cli := harness.Options{Quick: true, Engine: &harness.Engine{}}
	for _, name := range harness.ExperimentNames() {
		var want strings.Builder
		if err := harness.RunExperiment(context.Background(), &want, name, cli); err != nil {
			t.Fatal(err)
		}
		code, body := get(t, ts.URL+"/artifact/"+name)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, body)
		}
		if body != want.String() {
			t.Fatalf("%s: served artifact diverges from the CLI rendering:\n--- served ---\n%s\n--- cli ---\n%s", name, body, want.String())
		}
	}
	var want strings.Builder
	cli.Systems = []string{"misc"}
	if err := harness.RunExperiment(context.Background(), &want, "all", cli); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/artifact/all?systems=misc")
	if code != http.StatusOK {
		t.Fatalf("all: status %d: %s", code, body)
	}
	if body != want.String() {
		t.Fatal("served all?systems=misc diverges from the CLI rendering")
	}
}

// TestSingleflightDedup is the thundering-herd pin at the HTTP layer: a herd
// of identical concurrent requests performs exactly one render and resolves
// each schedule exactly once (by synthesis — the fabric is never touched);
// every response carries the identical bytes. The render gate holds the
// flight open until the whole herd has attached, so the assertions are
// deterministic (and a broken singleflight fails the counters instead of
// deadlocking, because the gate times out).
func TestSingleflightDedup(t *testing.T) {
	// Reference pass: the artifact bytes and the per-schedule synthesis
	// count of a cold fig1 render.
	ref := &harness.Engine{}
	var want strings.Builder
	if err := harness.RunExperiment(context.Background(), &want, "fig1", harness.Options{Quick: true, Engine: ref}); err != nil {
		t.Fatal(err)
	}
	synthRef := ref.Stats().SynthHits
	if synthRef == 0 {
		t.Fatal("reference render synthesized nothing")
	}

	log := &accessTally{}
	srv, ts := newTestServer(t, Config{AccessLog: log})
	const herd = 8
	deadline := time.Now().Add(10 * time.Second)
	renderGate = func() {
		for attached(&srv.flights) < herd && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	defer func() { renderGate = nil }()

	bodies := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts.URL+"/artifact/fig1")
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
			}
			bodies[i] = body
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if b != want.String() {
			t.Fatalf("request %d diverges from the CLI rendering:\n%s", i, b)
		}
	}
	if ok, leaders, joins := log.code(http.StatusOK), log.role("leader"), log.role("follower"); ok != herd || leaders != 1 || joins != herd-1 {
		t.Fatalf("herd of %d: %d served, %d renders, %d joins — want %d/1/%d",
			herd, ok, leaders, joins, herd, herd-1)
	}
	if n := log.bytes(); n != int64(herd*len(want.String())) {
		t.Fatalf("herd logged %d bytes served, want %d", n, herd*len(want.String()))
	}
	cache := srv.engine.Stats()
	if cache.SynthHits != synthRef {
		t.Fatalf("herd synthesized %d schedules, want %d (one per schedule)", cache.SynthHits, synthRef)
	}
	if cache.Records != 0 {
		t.Fatalf("herd touched the goroutine fabric %d times, want 0", cache.Records)
	}
}

// TestRequestValidation covers the error surface: unknown experiments 404,
// malformed or misaddressed parameters 400, /healthz answers, and the retired
// /statsz route is gone.
func TestRequestValidation(t *testing.T) {
	t.Parallel()
	log := &accessTally{}
	_, ts := newTestServer(t, Config{AccessLog: log})
	cases := []struct {
		path string
		code int
	}{
		{"/artifact/nope", http.StatusNotFound},
		{"/artifact/fig1?systems=lumi", http.StatusBadRequest},
		{"/artifact/all?systems=bogus", http.StatusBadRequest},
		{"/artifact/all?systems=,", http.StatusBadRequest},
		{"/artifact/fig1?full=banana", http.StatusBadRequest},
		{"/artifact/", http.StatusNotFound},
		// A repeated parameter is refused, not resolved by position.
		{"/artifact/all?systems=lumi&systems=fugaku", http.StatusBadRequest},
		{"/artifact/fig1?full=1&full=0", http.StatusBadRequest},
		// Error bodies repeat a bounded prefix of what the client sent.
		{"/artifact/" + strings.Repeat("x", 1<<16), http.StatusNotFound},
		{"/artifact/all?systems=" + strings.Repeat("x", 1<<16), http.StatusBadRequest},
		{"/artifact/fig1?full=" + strings.Repeat("x", 1<<16), http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body := get(t, ts.URL+c.path)
		if code != c.code || len(body) > maxErrorBody {
			t.Fatalf("%.80s: status %d want %d, %d-byte body (%.80s)", c.path, code, c.code, len(body), body)
		}
	}
	for path, want := range map[string]string{
		"/artifact/all?systems=lumi&systems=fugaku": "systems",
		"/artifact/fig1?full=1&full=0":              "full",
	} {
		if _, body := get(t, ts.URL+path); !strings.Contains(body, "parameter "+want+" given 2 times") {
			t.Fatalf("%s: body %q does not name the repeated parameter", path, body)
		}
	}
	if flights := log.role("leader") + log.role("follower") + log.role("shed"); flights != 0 || log.role("") == 0 {
		t.Fatalf("rejected requests reached the flight table: %d flight lines, %d refusals logged", flights, log.role(""))
	}

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/statsz"); code != http.StatusNotFound {
		t.Fatalf("statsz: %d, want 404", code)
	}
}

// TestServicePrewarm pins the startup pass: the shared store directory is
// decode-validated before serving — valid traces counted with their
// footprint, corrupt files evicted.
func TestServicePrewarm(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := fabric.NewTrace(4, []fabric.Record{{From: 0, To: 1, Step: 0, Elems: 1}})
	key := tracestore.Key{Kind: "flat", Collective: "bcast", Algo: "x", Shape: "4", SchedVersion: 1}
	if err := st.Save(key, tr, tracestore.OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef.trace"), []byte("BTRCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{TraceDir: dir})
	ps := srv.Prewarm()
	if ps.Files != 2 || ps.Valid != 1 || ps.Corrupt != 1 || ps.MemBytes != tr.MemBytes() {
		t.Fatalf("prewarm %+v", ps)
	}
	if _, err := os.Stat(filepath.Join(dir, "deadbeef.trace")); !os.IsNotExist(err) {
		t.Fatal("prewarm left the corrupt file in place")
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, ps.String()) {
		t.Fatalf("readyz after prewarm: %d\n%s", code, body)
	}
}

// TestNewRefusesWidthsOverCap pins that a Workers or MaxFlights above
// pool.MaxWidth makes New fail, naming the cap, before it starts anything: no
// pool worker, no prewarm goroutine, so the process has no more goroutines
// after the call than before it. The test is not parallel, so no other test
// starts goroutines meanwhile.
func TestNewRefusesWidthsOverCap(t *testing.T) {
	for _, cfg := range []Config{{Workers: pool.MaxWidth + 1}, {MaxFlights: pool.MaxWidth + 1}} {
		before := runtime.NumGoroutine()
		srv, err := New(cfg)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%+v: %d goroutines before New, %d after it returned", cfg, before, after)
		}
		if srv != nil {
			srv.Close()
		}
		if srv != nil || err == nil || !strings.Contains(err.Error(), "1025 exceeds the cap of 1024") {
			t.Errorf("%+v: New = (%v, %v), want an error naming the cap", cfg, srv, err)
		}
	}
}

// TestServersAreIsolated pins the per-server Engine at the HTTP layer: two
// servers in one process, on different trace directories, serve the same
// artifacts while each Engine's cache counters count only that server's own
// resolutions — a warm store on one side, cold synthesis written through on
// the other.
func TestServersAreIsolated(t *testing.T) {
	t.Parallel()
	warmDir := t.TempDir()
	populate, err := tracestore.Open(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	opts := harness.Options{Quick: true, Engine: &harness.Engine{Store: populate}}
	var want strings.Builder
	if err := harness.RunExperiment(context.Background(), &want, "fig9a", opts); err != nil {
		t.Fatal(err)
	}

	warmSrv, warm := newTestServer(t, Config{TraceDir: warmDir})
	coldSrv, cold := newTestServer(t, Config{TraceDir: t.TempDir()})
	for _, ts := range []*httptest.Server{warm, cold} {
		if code, body := get(t, ts.URL+"/artifact/fig9a"); code != http.StatusOK || body != want.String() {
			t.Fatalf("fig9a: status %d, diverges=%v", code, body != want.String())
		}
	}
	w, c := warmSrv.engine.Stats(), coldSrv.engine.Stats()
	if w.DiskHits == 0 || w.SynthHits != 0 || w.DiskSaves != 0 {
		t.Fatalf("warm-store server resolved cold: %+v", w)
	}
	if c.SynthHits == 0 || c.DiskHits != 0 || c.DiskSaves != c.SynthHits {
		t.Fatalf("empty-store server did not synthesize and write through: %+v", c)
	}
	if w.CachedTraces != c.CachedTraces || w.MemoryHits != c.MemoryHits {
		t.Fatalf("servers share a memory tier:\nwarm %+v\ncold %+v", w, c)
	}
	// A request to one server moves only that server's counters.
	if code, _ := get(t, cold.URL+"/artifact/fig9a"); code != http.StatusOK {
		t.Fatalf("second cold request: %d", code)
	}
	if again := warmSrv.engine.Stats(); again != w {
		t.Fatalf("a request to the other server moved this one's cache counters:\nbefore %+v\nafter  %+v", w, again)
	}
	if again := coldSrv.engine.Stats(); again.MemoryHits <= c.MemoryHits {
		t.Fatalf("second request did not hit the server's own memory tier: %+v", again)
	}
}
