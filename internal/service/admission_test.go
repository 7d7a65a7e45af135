package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"binetrees/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsWith429RetryAfter drives the budget deterministically:
// with one render slot and one queue seat, a third distinct-plan request is
// shed with 429 + Retry-After, followers of the rendering flight still join
// for free, and once the load drains new requests are admitted again.
func TestAdmissionShedsWith429RetryAfter(t *testing.T) {
	gate := make(chan struct{})
	renderGate = func() { <-gate }
	defer func() { renderGate = nil }()
	log := &accessTally{}
	srv, ts := newTestServer(t, Config{MaxFlights: 1, AccessLog: log})
	if srv.adm.maxFlights != 1 {
		t.Fatalf("admission budget %d, want the configured 1", srv.adm.maxFlights)
	}

	var wg sync.WaitGroup
	launch := func(path string, wantCode int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts.URL+path)
			if code != wantCode {
				t.Errorf("%s: status %d, want %d: %s", path, code, wantCode, body)
			}
		}()
	}

	// Flight 1 takes the only token and blocks on the gate.
	launch("/artifact/fig1", http.StatusOK)
	waitFor(t, "flight 1 to hold the render slot", func() bool { return srv.adm.inFlight() == 1 })
	// Flight 2 (distinct plan) takes the only queue seat.
	launch("/artifact/eq2", http.StatusOK)
	waitFor(t, "flight 2 to queue", func() bool { return srv.adm.waiting.Load() == 1 })

	// Flight 3 (another distinct plan) is over budget: shed, synchronously.
	resp, err := http.Get(ts.URL + "/artifact/fig9a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 || retry > 60 {
		t.Fatalf("429 Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}

	// A follower of the rendering flight is not shed — joins are free.
	launch("/artifact/fig1", http.StatusOK)
	// Flight 1's leader and follower plus flight 2's leader.
	waitFor(t, "follower to join flight 1", func() bool { return attached(&srv.flights) == 3 })
	if shed := log.role("shed"); shed != 1 {
		t.Fatalf("shed count after follower join = %d, want 1", shed)
	}

	// Load drains: the blocked renders finish, and admission recovers.
	close(gate)
	wg.Wait()
	// A leader returns its token only after finishing the stream its clients
	// were waiting on, so the slot may still be held for an instant.
	waitFor(t, "render slots to free", func() bool { return srv.adm.inFlight() == 0 })
	if code, body := get(t, ts.URL+"/artifact/fig9b"); code != http.StatusOK {
		t.Fatalf("post-drain request: status %d: %s", code, body)
	}

	// fig1, eq2 (after queueing) and fig9b rendered; fig1's second request
	// joined; fig9a was shed.
	if leaders, joins, shed := log.role("leader"), log.role("follower"), log.role("shed"); leaders != 3 || joins != 1 || shed != 1 {
		t.Fatalf("access log: %d leaders, %d followers, %d shed — want 3/1/1", leaders, joins, shed)
	}
	if waiting, inFlight := srv.adm.waiting.Load(), srv.adm.inFlight(); waiting != 0 || inFlight != 0 {
		t.Fatalf("admission occupancy after drain: %d waiting, %d in flight — want idle", waiting, inFlight)
	}
}

// TestDisconnectStormFreesCells answers the ROADMAP's open question: when
// every client of many in-flight renders disconnects, the abandoned flights'
// contexts cancel, ForEachCtx stops dispatching their cells, the pool drains
// to zero pressure, and subsequent requests are admitted and served. Run
// under -race in CI.
func TestDisconnectStormFreesCells(t *testing.T) {
	gate := make(chan struct{})
	renderGate = func() { <-gate }
	defer func() { renderGate = nil }()
	srv, _ := newTestServer(t, Config{MaxFlights: 2})
	mux := srv.Handler()

	// Four distinct-plan clients: two render slots, two queue seats — the
	// budget is exactly full.
	paths := []string{"/artifact/fig1", "/artifact/eq2", "/artifact/fig9a", "/artifact/fig9b"}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, p := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("GET", p, nil).WithContext(ctx)
			mux.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	waitFor(t, "two renders in flight", func() bool { return srv.adm.inFlight() == 2 })
	waitFor(t, "two flights queued", func() bool { return srv.adm.waiting.Load() == 2 })

	// The storm: every client disconnects at once. Handlers return, drop
	// their references, and the abandoned flights cancel.
	cancel()
	wg.Wait()
	close(gate) // blocked leaders resume into already-cancelled contexts

	waitFor(t, "flight table to empty", func() bool { return srv.flights.active() == 0 })
	waitFor(t, "render slots to free", func() bool { return srv.adm.inFlight() == 0 })
	waitFor(t, "pool to drain", func() bool {
		s := srv.runner.Stats()
		return s.QueueDepth+s.InFlight == 0
	})

	// Capacity is actually back: a fresh request renders and streams fully.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/artifact/fig1", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("post-storm request: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
}

// TestRetryAfter pins the back-off advice over a recency window on a private
// histogram: no recent latency answers 1, a p95 in (2.5, 5] seconds with an
// empty queue and one render slot answers that p95 rounded up, and a deep
// queue clamps at 60.
func TestRetryAfter(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name     string
		observed []float64
		waiting  int64
		min, max int
	}{
		{"empty window", nil, 0, 1, 1},
		{"p95 in (2.5, 5]", []float64{3, 4, 4.5}, 0, 3, 5},
		{"deep queue", []float64{3, 4, 4.5}, 1000, 60, 60},
	} {
		h := obs.NewRegistry().Histogram("retry_test_seconds", "t", nil)
		s := &Server{serveWindow: obs.NewWindow(h, time.Minute), adm: newAdmission(1)}
		for _, v := range c.observed {
			h.Observe(v)
		}
		s.adm.waiting.Store(c.waiting)
		if got := s.retryAfter(); got < c.min || got > c.max {
			t.Errorf("%s: Retry-After %d, want %d..%d", c.name, got, c.min, c.max)
		}
	}
}
