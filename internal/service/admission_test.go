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
	srv, ts := newTestServer(t, Config{MaxFlights: 1})

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
	waitFor(t, "follower to join flight 1", func() bool { return srv.Snapshot().DedupJoins == 1 })
	if shed := srv.adm.shed.Load(); shed != 1 {
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

	st := srv.Snapshot().Admission
	if st.MaxFlights != 1 {
		t.Fatalf("admission config in statsz: %+v", st)
	}
	if st.Admitted != 2 || st.Queued != 1 || st.Shed != 1 {
		t.Fatalf("admission counters: %+v, want admitted=2 queued=1 shed=1", st)
	}
	if st.Waiting != 0 || st.InFlight != 0 {
		t.Fatalf("admission occupancy after drain: %+v, want idle", st)
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
