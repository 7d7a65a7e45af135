package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers every target with "ok"; the first `stalled` requests
// hold their reply for stall first.
func stubServer(stalled int32, stall time.Duration) (*httptest.Server, []target) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= stalled {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "ok")
	}))
	return srv, []target{{"/light", []byte("ok")}, {"/heavy", []byte("ok")}}
}

// The closed loop sends a client's next request when the previous reply is
// complete, so a stalled server receives less load instead of a backlog: no
// two requests overlap, and the stall shows in the sweep that
// met it.
func TestClosedLoopWaitsForEachReply(t *testing.T) {
	const stall = 100 * time.Millisecond
	srv, targets := stubServer(1, stall)
	defer srv.Close()
	samples, sweeps := newLoad(srv.URL, targets, 1).drive(context.Background(), 0.3)
	if len(sweeps) == 0 || len(samples) != len(sweeps)*len(targets) {
		t.Fatalf("%d requests in %d sweeps of %d targets: a started sweep must complete", len(samples), len(sweeps), len(targets))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].sent < samples[i-1].done {
			t.Errorf("request %d sent at %.4fs, before the previous reply was complete at %.4fs", i, samples[i].sent, samples[i-1].done)
		}
	}
	if first := sweeps[0]; !first.ok || first.latencyMS() < float64(stall.Milliseconds()) {
		t.Errorf("the first sweep met the %v stall but took %.1f ms (ok=%v)", stall, first.latencyMS(), first.ok)
	}
	if last := sweeps[len(sweeps)-1]; last.start >= 0.3 {
		t.Errorf("a sweep started at %.3fs, after the 0.3s window", last.start)
	}
}

// A sweep with one bad reply is not an ok operation.
func TestSweepWithBadReplyIsNotOK(t *testing.T) {
	srv, targets := stubServer(0, 0)
	defer srv.Close()
	targets[1].want = []byte("something else")
	samples, sweeps := newLoad(srv.URL, targets, 1).drive(context.Background(), 0.05)
	for _, sw := range sweeps {
		if sw.ok {
			t.Fatalf("a sweep holding a byte-different body counted as ok")
		}
	}
	bad := 0
	for _, s := range samples {
		if !s.ok {
			bad++
		}
	}
	if bad != len(sweeps) {
		t.Errorf("%d bad requests in %d sweeps, want one per sweep", bad, len(sweeps))
	}
}

func TestBodyMismatchIsNotOK(t *testing.T) {
	srv, _ := stubServer(0, 0)
	defer srv.Close()
	var s sample
	(&load{base: srv.URL}).one(context.Background(), http.DefaultClient, target{"/x", []byte("something else")}, &s, func() float64 { return 0 })
	if s.ok || s.status != http.StatusOK {
		t.Errorf("a 200 with a different body must not count as ok: %+v", s)
	}
}

// Every sweep requests every target exactly once; the seed decides only the
// order, reproducibly, and a second drive continues with fresh orders.
func TestSweepsCoverTheCatalogueInSeededOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.URL.Path)
		mu.Unlock()
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	var targets []target
	for i := 0; i < 17; i++ {
		targets = append(targets, target{fmt.Sprintf("/t%d", i), []byte("ok")})
	}
	// 0 seconds: the window is over before the first sweep starts.
	if samples, sweeps := newLoad(srv.URL, targets, 1).drive(context.Background(), 0); len(samples)+len(sweeps) != 0 {
		t.Fatalf("a 0s window drove %d requests", len(samples))
	}
	sequence := func(seed int64) []string {
		seen = nil
		l := newLoad(srv.URL, targets, seed)
		for len(seen) < 3*len(targets) {
			l.drive(context.Background(), 1e-4)
		}
		return slices.Clone(seen)
	}
	a, b := sequence(1), sequence(2)
	for sw := 0; sw < 3; sw++ {
		counts := map[string]int{}
		for _, path := range a[sw*17 : (sw+1)*17] {
			counts[path]++
		}
		if len(counts) != 17 {
			t.Fatalf("sweep %d requested %d distinct targets, want all 17 once: %v", sw, len(counts), counts)
		}
	}
	if slices.Equal(a[:17], a[17:34]) {
		t.Errorf("consecutive sweeps use the same order")
	}
	if slices.Equal(a[:51], b[:51]) {
		t.Errorf("seeds 1 and 2 deal the same order")
	}
	if !slices.Equal(a[:51], sequence(1)[:51]) {
		t.Errorf("seed 1 does not reproduce its order")
	}
}
