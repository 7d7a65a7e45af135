package service

import (
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"

	"binetrees/internal/tracestore"
)

// TestDegradedStoreServing pins the acceptance story end to end at the
// service layer: the trace-cache directory goes read-only mid-run, requests
// keep succeeding from synthesis, the Engine reports the store degraded (with
// skipped saves), and once the directory recovers the store reports healthy
// and writes through again.
func TestDegradedStoreServing(t *testing.T) {
	t.Parallel()
	log := &accessTally{}
	srv, ts := newTestServer(t, Config{TraceDir: t.TempDir(), AccessLog: log})
	srv.Prewarm()
	store := srv.engine.Store
	store.SetProbeInterval(0) // probe on every degraded save
	var broken atomic.Bool
	broken.Store(true)
	rofs := &os.PathError{Op: "open", Path: "trace-cache", Err: syscall.EROFS}
	store.SetFaultHook(func(op tracestore.FaultOp) error {
		if broken.Load() && (op == tracestore.FaultCreateTemp || op == tracestore.FaultProbe) {
			return rofs
		}
		return nil
	})

	// The render succeeds — synthesis needs no disk — while its write-behind
	// save fails and degrades the store before the response completes.
	if code, body := get(t, ts.URL+"/artifact/fig1"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("request on read-only store: %d, %d bytes", code, len(body))
	}
	cache := srv.engine.Stats()
	if !cache.StoreDegraded || cache.StoreDegradedReason == "" {
		t.Fatalf("engine does not report the store degraded: %+v", cache)
	}
	if n := log.code(http.StatusInternalServerError); n != 0 {
		t.Fatalf("store degradation surfaced as request failures: %d", n)
	}

	// Degraded steady state: more artifacts serve fine, saves skip.
	if code, _ := get(t, ts.URL+"/artifact/eq2"); code != http.StatusOK {
		t.Fatalf("second request while degraded: %d", code)
	}
	if cache := srv.engine.Stats(); cache.DiskSaveSkips == 0 {
		t.Fatalf("degraded serving recorded no skipped saves: %+v", cache)
	}

	// The directory recovers: the next save's probe restores write-through,
	// and the degraded flag drops.
	broken.Store(false)
	if code, _ := get(t, ts.URL+"/artifact/fig9a"); code != http.StatusOK {
		t.Fatalf("request after recovery: %d", code)
	}
	cache = srv.engine.Stats()
	if cache.StoreDegraded {
		t.Fatalf("engine still reports degraded after recovery: %+v", cache)
	}
	if cache.DiskSaves == 0 {
		t.Fatalf("post-recovery render did not write through: %+v", cache)
	}
	if ok, leaders := log.code(http.StatusOK), log.role("leader"); ok != 3 || leaders != 3 {
		t.Fatalf("degraded episode broke request accounting: %d served, %d rendered, want 3/3", ok, leaders)
	}
}
