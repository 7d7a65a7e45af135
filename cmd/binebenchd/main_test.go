package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/pool"
)

// waitGoroutines gives goroutines that are already unwinding up to 5 s to
// exit and fails the test if more than before are left.
func waitGoroutines(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%s: %d goroutines before run, %d after it returned", what, before, n)
	}
}

// TestRunExitCodes pins the exits an operator hits, in-process: a flag the
// daemon does not have, and a -workers or -max-flights above pool.MaxWidth,
// are usage errors (2), an unusable -trace-cache and an
// -addr another listener holds fail the start (1), an interrupt is a clean
// shutdown (0). Each names its cause on stderr, returns promptly, and leaves
// no goroutine behind — no pool worker, no listener still serving.
func TestRunExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	interrupted, interrupt := context.WithCancel(context.Background())
	interrupt()

	cases := []struct {
		name   string
		ctx    context.Context
		args   []string
		code   int
		stderr string
	}{
		{"unknown flag", context.Background(), []string{"-no-such-flag"}, 2, "Usage of binebenchd:"},
		{"bad -max-flights", context.Background(), []string{"-max-flights", "many"}, 2, "invalid value"},
		{"-workers over the cap", context.Background(), []string{"-access-log", "off", "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(pool.MaxWidth + 1)}, 2, "-workers 1025 exceeds the cap of 1024"},
		{"-max-flights over the cap", context.Background(), []string{"-access-log", "off", "-addr", "127.0.0.1:0", "-max-flights", fmt.Sprint(pool.MaxWidth + 1)}, 2, "-max-flights 1025 exceeds the cap of 1024"},
		{"trace cache under a regular file", context.Background(), []string{"-trace-cache", filepath.Join(file, "store")}, 1, "tracestore:"},
		{"address in use", context.Background(), []string{"-access-log", "off", "-addr", held.Addr().String()}, 1, "address already in use"},
		{"interrupt", interrupted, []string{"-access-log", "off", "-addr", "127.0.0.1:0"}, 0, "shutting down"},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		var stderr strings.Builder
		code := make(chan int, 1)
		go func() { code <- run(tc.ctx, tc.args, &stderr) }()
		select {
		case got := <-code:
			if got != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("%s: exit %d (want %d), stderr %q (want it to mention %q)", tc.name, got, tc.code, stderr.String(), tc.stderr)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10 s", tc.name)
		}
		waitGoroutines(t, tc.name, before)
	}
}

// lockedBuffer is the daemon's stderr: run logs from several goroutines
// while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServes is the serve gate, in-process: the daemon started on port 0
// over an empty -trace-cache logs the address it bound, answers /healthz from
// the first request, turns /readyz 200 once the prewarm lands, serves fig9a
// byte-identical to harness.RunExperiment under the caller's X-Request-ID,
// shows that request on /tracez, and on interrupt exits 0 with no goroutine
// left behind.
func TestRunServes(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	var stderr lockedBuffer
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-addr", "127.0.0.1:0", "-access-log", "off", "-trace-cache", t.TempDir()}, &stderr)
	}()

	listening := regexp.MustCompile(`serving artifacts on (127\.0\.0\.1:[1-9][0-9]*)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(time.Millisecond) {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("the daemon never logged the address it bound: %q", stderr.String())
		}
	}
	// No keep-alive: an idle client connection is two goroutines the leak
	// check below would have to tell from the daemon's.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(path, id string) (int, string) {
		t.Helper()
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := client.Do(req)
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
	if c, body := get("/healthz", ""); c != http.StatusOK || body != "ok\n" {
		t.Fatalf("first /healthz: %d %q", c, body)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if c, _ := get("/readyz", ""); c == http.StatusOK {
			break
		} else if c != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("/readyz answered %d and never turned 200", c)
		}
	}
	var want strings.Builder
	if err := harness.RunExperiment(context.Background(), &want, "fig9a", harness.Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if c, body := get("/artifact/fig9a", "serve-gate"); c != http.StatusOK || body != want.String() {
		t.Fatalf("served fig9a: status %d, diverges from harness.RunExperiment: %v", c, body != want.String())
	}
	if c, body := get("/tracez", ""); c != http.StatusOK || !strings.Contains(body, `"serve-gate"`) {
		t.Fatalf("/tracez: %d, request serve-gate absent:\n%s", c, body)
	}

	interrupt()
	select {
	case got := <-code:
		if got != 0 || !strings.Contains(stderr.String(), "shutting down") {
			t.Errorf("interrupt: exit %d, stderr %q", got, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("still running 10 s after the interrupt")
	}
	waitGoroutines(t, "serve then interrupt", before)
}
