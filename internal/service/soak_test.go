package service

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/tracestore"
)

// The soak's shape: soakClients closed-loop clients, started one by one over
// soakRamp, drive load until soakLoad has passed — longer on a host so slow
// (-race on a busy machine serves a tenth of the requests) that some kind of
// outcome has not been seen soakFloor times by then; a replica opens on the
// same trace directory at soakReplicaAt.
const (
	soakClients   = 12
	soakRamp      = 400 * time.Millisecond
	soakReplicaAt = 400 * time.Millisecond
	soakLoad      = 1200 * time.Millisecond
	soakFloor     = 3
)

// soakTally is what the soak's clients saw. Anything that has no innocent
// explanation — a transport error on a request the client did not cancel, a
// 429 without a usable Retry-After, a status artifact should never answer
// here — is a problem, reported verbatim.
type soakTally struct {
	ok, shed, aborted, cancelled, s5xx atomic.Int64

	mu       sync.Mutex
	problems []string
}

func (s *soakTally) problem(format string, args ...any) {
	s.mu.Lock()
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// client is one closed-loop load generator: it issues its next request as
// soon as the previous one ends, until done reports true, so offered load scales
// with the client count and only admission control bounds the work. One
// request in ten is cancelled within 3 ms (before the first byte: queued, or
// mid-render), two in ten hang up after the first chunk (the disconnect
// storm); a shed client backs off 2 ms, not the seconds Retry-After asks for.
func (s *soakTally) client(hc *http.Client, rng *rand.Rand, base func(*rand.Rand) string, paths []string, done func() bool) {
	for !done() {
		url := base(rng) + paths[rng.Intn(len(paths))]
		fate := rng.Float64()
		ctx, cancel := context.WithCancel(context.Background())
		if fate < 0.1 {
			time.AfterFunc(time.Duration(rng.Intn(3000))*time.Microsecond, cancel)
		}
		req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
		if err != nil {
			s.problem("%s: %v", url, err)
			cancel()
			continue
		}
		resp, err := hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				s.cancelled.Add(1)
			} else {
				s.problem("%s: transport: %v", url, err)
			}
			cancel()
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			s.shed.Add(1)
			ra := resp.Header.Get("Retry-After")
			if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 60 {
				s.problem("%s: 429 with Retry-After %q, want an integer in [1, 60]", url, ra)
			}
			io.Copy(io.Discard, resp.Body)
			time.Sleep(2 * time.Millisecond)
		case resp.StatusCode >= 500:
			s.s5xx.Add(1)
			body, _ := io.ReadAll(resp.Body)
			s.problem("%s: %d: %s", url, resp.StatusCode, body)
		case resp.StatusCode != http.StatusOK:
			s.problem("%s: status %d", url, resp.StatusCode)
		case fate >= 0.1 && fate < 0.3:
			io.CopyN(io.Discard, resp.Body, 512)
			cancel()
			s.aborted.Add(1)
		default:
			if _, err := io.Copy(io.Discard, resp.Body); err == nil {
				s.ok.Add(1)
			} else if ctx.Err() != nil {
				s.cancelled.Add(1)
			} else {
				// A render that failed after the 200 went out aborts the
				// connection; the client sees a short body.
				s.problem("%s: body: %v", url, err)
			}
		}
		resp.Body.Close()
		cancel()
	}
}

// damageTraces ruins every n-th stored trace in place — alternately
// overwritten with garbage and cut in half, never created, so a slot the
// store has evicted stays empty — and reports how many it hit.
func damageTraces(dir string, n int) int {
	files, _ := filepath.Glob(filepath.Join(dir, "*.trace"))
	hit := 0
	for i := 0; i < len(files); i += n {
		if hit%2 == 0 {
			f, err := os.OpenFile(files[i], os.O_WRONLY|os.O_TRUNC, 0)
			if err != nil {
				continue
			}
			f.WriteString("BTRCgarbage")
			f.Close()
		} else if fi, err := os.Stat(files[i]); err != nil || os.Truncate(files[i], fi.Size()/2) != nil {
			continue
		}
		hit++
	}
	return hit
}

// TestSoak composes, at once and over real TCP, the failure seams the other
// tests of this package and of tracestore take one at a time: a client ramp
// past a one-flight budget, a disconnect storm, cancellation before the first
// byte, a trace directory that runs out of space every other 50 ms, and store
// files damaged in place while a second, cold Server — the only reader that
// ever re-reads them, the first serves every resolved trace from memory —
// opens on the same directory mid-run. Overload and disk trouble must cost
// nothing but 429s: no 5xx, no torn response, no failure counted; once the
// load stops both servers drain to idle, their stores report leaving
// degraded mode when read, the artifacts are byte-identical to the CLI's,
// and Close leaves no goroutine behind. CI runs it under -race.
func TestSoak(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	// Both servers log into one tally: what they answered, as they saw it.
	log := &accessTally{}
	gaveUp := func() int64 { return int64(log.code(499)) }
	dir := t.TempDir()
	start := time.Now()
	var flapping atomic.Bool
	flapping.Store(true)
	var faults atomic.Int64
	enospc := &os.PathError{Op: "write", Path: dir, Err: syscall.ENOSPC}
	flap := func(op tracestore.FaultOp) error {
		full := (op == tracestore.FaultEncode || op == tracestore.FaultProbe) &&
			flapping.Load() && time.Since(start)/(50*time.Millisecond)%2 == 0
		if !full {
			return nil
		}
		faults.Add(1)
		return enospc
	}
	type node struct {
		*Server
		ts *httptest.Server
	}
	open := func(maxFlights int) node {
		srv, ts := newTestServer(t, Config{TraceDir: dir, MaxFlights: maxFlights, AccessLog: log})
		srv.engine.Store.SetProbeInterval(0) // probe on every degraded save
		srv.engine.Store.SetFaultHook(flap)
		srv.Prewarm()
		return node{srv, ts}
	}
	primary := open(1)

	var paths []string
	for _, name := range harness.ExperimentNames() {
		paths = append(paths, "/artifact/"+name)
	}
	paths = append(paths, "/artifact/all?systems=fugaku", "/artifact/all?systems=leonardo,fugaku")
	var replicaURL atomic.Pointer[string]
	base := func(rng *rand.Rand) string {
		if u := replicaURL.Load(); u != nil && rng.Intn(3) == 0 {
			return *u
		}
		return primary.ts.URL
	}
	tr := &http.Transport{MaxIdleConnsPerHost: soakClients}
	var tally soakTally
	loadDone := func() bool {
		seen := min(tally.ok.Load(), tally.shed.Load(), tally.aborted.Load(), tally.cancelled.Load(), gaveUp())
		return time.Since(start) >= soakLoad && (seen >= soakFloor || time.Since(start) >= 10*soakLoad)
	}
	var clients sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			time.Sleep(soakRamp * time.Duration(i) / soakClients)
			tally.client(&http.Client{Transport: tr}, rand.New(rand.NewSource(int64(i)+1)), base, paths, loadDone)
		}()
	}

	// Mid-run: damage half of what the primary has stored so far (it stores
	// only between ENOSPC windows), open the replica over the damage, and keep
	// damaging while both serve.
	time.Sleep(time.Until(start.Add(soakReplicaAt)))
	waitFor(t, "the primary to write a trace through", func() bool { return damageTraces(dir, 2) > 0 })
	replica := open(2)
	replicaURL.Store(&replica.ts.URL)
	for !loadDone() {
		damageTraces(dir, 5)
		time.Sleep(10 * time.Millisecond)
	}
	clients.Wait()
	flapping.Store(false)

	nodes := map[string]node{"primary": primary, "replica": replica}
	for name, srv := range nodes {
		waitFor(t, name+" to quiesce", func() bool {
			pool := srv.runner.Stats()
			return srv.flights.active() == 0 && srv.adm.inFlight() == 0 && srv.adm.waiting.Load() == 0 &&
				pool.QueueDepth+pool.InFlight == 0
		})
	}
	evictions := replica.engine.Stats().CorruptEvictions
	t.Logf("soak: ok=%d shed=%d aborted=%d cancelled=%d 5xx=%d; servers: 499=%d corrupt-evictions=%d enospc-faults=%d",
		tally.ok.Load(), tally.shed.Load(), tally.aborted.Load(), tally.cancelled.Load(), tally.s5xx.Load(), gaveUp(), evictions, faults.Load())
	for _, p := range tally.problems {
		t.Error(p)
	}
	if tally.ok.Load() == 0 || tally.shed.Load() == 0 || tally.aborted.Load() == 0 || tally.cancelled.Load() == 0 ||
		gaveUp() == 0 || evictions == 0 || faults.Load() == 0 {
		t.Error("a seam the soak composes never fired: every count above but 5xx must be non-zero")
	}

	// Reading a degraded store's state probes it, so on a healthy disk both
	// servers report recovery without another Save.
	for name, srv := range nodes {
		if c := srv.engine.Stats(); c.StoreDegraded {
			t.Errorf("%s: store still degraded on a healthy disk: %+v", name, c)
		}
	}
	if n := log.code(http.StatusInternalServerError); n != 0 {
		t.Errorf("the servers counted %d failed requests", n)
	}
	var want strings.Builder
	if err := harness.RunExperiment(context.Background(), &want, "all", harness.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	for name, srv := range nodes {
		if code, body := get(t, srv.ts.URL+"/artifact/all"); code != http.StatusOK || body != want.String() {
			t.Errorf("%s after the soak: /artifact/all status %d, diverges from harness.RunExperiment: %v", name, code, body != want.String())
		}
		srv.ts.Close()
		srv.Close()
	}
	// get's http.DefaultClient and the soak's own transport hold idle
	// connections, two goroutines apiece on this side.
	http.DefaultClient.CloseIdleConnections()
	tr.CloseIdleConnections()
	waitFor(t, "goroutines to return to the pre-test count", func() bool { return runtime.NumGoroutine() <= goroutines })
}
