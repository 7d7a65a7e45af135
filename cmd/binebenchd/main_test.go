package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunExitCodes pins the exits an operator hits, in-process: a flag the
// daemon does not have is a usage error (2), an unusable -trace-cache and an
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
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines before run, %d after it returned", tc.name, before, n)
		}
	}
}
