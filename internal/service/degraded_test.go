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
// keep succeeding from synthesis, /statsz reports the store degraded (with
// skipped saves), and once the directory recovers the store reports healthy
// and writes through again.
func TestDegradedStoreServing(t *testing.T) {
	t.Parallel()
	srv, ts := newTestServer(t, Config{TraceDir: t.TempDir()})
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
	snap := srv.Snapshot()
	if !snap.Cache.StoreDegraded || snap.Cache.StoreDegradedReason == "" {
		t.Fatalf("statsz does not report the store degraded: %+v", snap.Cache)
	}
	if snap.Failures != 0 {
		t.Fatalf("store degradation surfaced as request failures: %d", snap.Failures)
	}

	// Degraded steady state: more artifacts serve fine, saves skip.
	if code, _ := get(t, ts.URL+"/artifact/eq2"); code != http.StatusOK {
		t.Fatalf("second request while degraded: %d", code)
	}
	if snap := srv.Snapshot(); snap.Cache.DiskSaveSkips == 0 {
		t.Fatalf("degraded serving recorded no skipped saves: %+v", snap.Cache)
	}

	// The directory recovers: the next save's probe restores write-through,
	// and /statsz drops the degraded flag.
	broken.Store(false)
	if code, _ := get(t, ts.URL+"/artifact/fig9a"); code != http.StatusOK {
		t.Fatalf("request after recovery: %d", code)
	}
	snap = srv.Snapshot()
	if snap.Cache.StoreDegraded {
		t.Fatalf("statsz still reports degraded after recovery: %+v", snap.Cache)
	}
	if snap.Cache.DiskSaves == 0 {
		t.Fatalf("post-recovery render did not write through: %+v", snap.Cache)
	}
	if snap.Failures != 0 || snap.Requests != 3 {
		t.Fatalf("degraded episode broke request accounting: %+v", snap)
	}
}
