// Command binebenchd serves the Bine Trees paper artifacts over HTTP: a
// long-running daemon that answers (experiment, systems, scale) requests
// from warm trace caches instead of re-running the suite per invocation.
//
// At startup it binds -addr immediately and prewarms the shared
// -trace-cache directory in the background — every stored trace is
// decode-validated (corrupt files are evicted) and the resident footprint
// is logged. /healthz answers 200 from the first instant (liveness);
// /readyz stays 503 until the prewarm pass completes (readiness), then
// reports the validated footprint and how long the pass took:
//
//	GET /artifact/{experiment}?systems=...&full=...  streamed text artifact
//	GET /healthz                                     liveness (always 200)
//	GET /readyz                                      readiness; 503 while prewarming
//	GET /metrics                                     Prometheus text format
//	GET /tracez                                      recent + slowest request timelines
//
// Responses are byte-identical to the binebench CLI's output for the same
// request: both compile the experiment — "all" is one — through the same
// plan path and drain and render it with the same loop (diffed in tests and
// CI). Identical concurrent requests are deduplicated by singleflight on the
// compiled plan key, so a thundering herd of the same artifact resolves each
// schedule once; all requests share one resident process-wide worker pool
// and trace cache.
// Cold schedules are synthesized directly from schedule math (byte-identical
// to fabric recordings, which the harness tests hold them to). Replicas may
// share one -trace-cache directory: stored traces are written
// world-readable and corrupt files self-evict on either side.
//
// Overload protection: at most -max-flights non-follower renders run
// concurrently, at most as many again wait for a slot, and anything beyond
// that is shed with 429 Too Many Requests + a Retry-After
// computed from recent p95 serve latency. Followers joining an in-flight
// render are never shed. If the -trace-cache directory turns read-only or
// fills up mid-flight, the store flips to a degraded read-only mode —
// requests keep succeeding from memory and synthesis, the
// binebench_tracestore_degraded gauge reports the degradation, and the store
// probes periodically for recovery.
//
// Every request carries a request ID (the client's X-Request-ID header, or
// a generated one), echoed on the response and stamped on the JSON access
// log line written per /artifact request (-access-log; stderr by default).
// /metrics is the daemon's one machine-readable view of its counts: stage
// latency histograms, resolver-origin and request counters, and pool and
// resident-trace gauges, in Prometheus text format with no client
// dependency; /tracez returns the recent and slowest per-request stage
// timelines.
// -debug-addr serves net/http/pprof on a separate listener so profiling
// stays off the artifact port.
//
// Usage:
//
//	binebenchd -addr :8080 -trace-cache /var/cache/binetrees
//	binebenchd -addr :8080 -debug-addr localhost:6060 -access-log access.jsonl
//	curl localhost:8080/artifact/fig9a
//	curl 'localhost:8080/artifact/all?systems=lumi,fugaku&full=true'
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"binetrees/internal/pool"
	"binetrees/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole daemon — flags in, log on stderr, exit code out — so tests
// can drive it in-process; it serves until ctx is cancelled and returns only
// once its listeners and the Server's goroutines have stopped. Exit codes: 0
// on a clean shutdown, 1 when the daemon cannot start or its listener fails
// (unusable -trace-cache or -access-log, -addr in use), 2 on a usage error
// (a -workers or -max-flights above pool.MaxWidth among them, refused before
// any worker starts or any admission slot is made).
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("binebenchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	debugAddr := fs.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = disabled)")
	accessLog := fs.String("access-log", "stderr", "JSON access log destination: stderr, stdout, a file path (appended), or off")
	traceCache := fs.String("trace-cache", "", "directory of the shared persistent trace store, prewarmed in the background at startup (empty = in-process cache only)")
	workers := fs.Int("workers", 0, "resident worker pool width shared by all requests (0 = one per CPU; at most 1024)")
	maxFlights := fs.Int("max-flights", 0, "max concurrent non-follower renders; as many again may queue before further flights are shed with 429 (0 = twice the pool width, min 4; at most 1024)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := errors.Join(pool.CheckWidth("-workers", *workers), pool.CheckWidth("-max-flights", *maxFlights)); err != nil {
		fmt.Fprintln(stderr, "binebenchd:", err)
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	logDst, logClose, err := openAccessLog(*accessLog, stderr)
	if err != nil {
		logger.Printf("binebenchd: %v", err)
		return 1
	}
	if logClose != nil {
		defer logClose()
	}

	srv, err := service.New(service.Config{
		TraceDir:   *traceCache,
		Workers:    *workers,
		AccessLog:  logDst,
		MaxFlights: *maxFlights,
	})
	if err != nil {
		logger.Printf("binebenchd: %v", err)
		return 1
	}
	defer srv.Close()
	if *traceCache != "" {
		// The prewarm pass runs in the background; log its outcome when it
		// lands without holding the listener back. /readyz gates on it. The
		// blocking Prewarm() call must sit inside the goroutine body: a bare
		// `go logger.Printf(..., srv.Prewarm())` would evaluate the argument
		// in this goroutine and stall the listener for the whole prewarm.
		go func() { logger.Printf("binebenchd: %v", srv.Prewarm()) }()
	}
	// Listening here, not in ListenAndServe, lets the log name the port the
	// kernel picked for an -addr ending in :0.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("binebenchd: %v", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	logger.Printf("binebenchd: serving artifacts on %s", ln.Addr())

	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serving that mux on a
		// dedicated listener keeps profiling off the artifact port entirely.
		ds := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		defer ds.Close()
		go func() {
			logger.Printf("binebenchd: serving pprof on %s/debug/pprof/", *debugAddr)
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("binebenchd: pprof listener: %v", err)
			}
		}()
	}

	select {
	case err := <-done:
		logger.Printf("binebenchd: %v", err)
		return 1
	case <-ctx.Done():
	}
	logger.Print("binebenchd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("binebenchd: shutdown: %v", err)
	}
	return 0
}

// openAccessLog resolves the -access-log destination. The returned closer is
// non-nil only when a file was opened.
func openAccessLog(dst string, stderr io.Writer) (io.Writer, func() error, error) {
	switch dst {
	case "off", "":
		return nil, nil, nil
	case "stderr":
		return stderr, nil, nil
	case "stdout":
		return os.Stdout, nil, nil
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log: %w", err)
	}
	return f, f.Close, nil
}
