package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// serialSuite renders the quick suite the pre-sharding way: every
// experiment run one at a time, each draining its own pool — the
// per-experiment path the flat cross-system graph must reproduce byte for
// byte.
func serialSuite(t *testing.T, workers int) string {
	t.Helper()
	opts := Options{Quick: true, Workers: workers, Engine: &Engine{}}
	var sb strings.Builder
	for i, name := range ExperimentNames() {
		if i > 0 {
			fmt.Fprintln(&sb, strings.Repeat("=", 100))
		}
		if err := RunExperiment(context.Background(), &sb, name, opts); err != nil {
			t.Fatalf("serial %s: %v", name, err)
		}
	}
	return sb.String()
}

// TestShardedRunAllByteIdentical pins the tentpole guarantee: RunAll's
// flat cross-system job graph — every system's cells drained at once on
// one shared pool — renders byte-identically to the serial per-experiment
// path, at worker counts {1, NumCPU}, each run cold on an Engine of its own.
func TestShardedRunAllByteIdentical(t *testing.T) {
	t.Parallel()
	reference := serialSuite(t, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		var sb strings.Builder
		if err := RunAll(context.Background(), &sb, Options{Quick: true, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sb.String() != reference {
			t.Fatalf("sharded RunAll (workers=%d) diverges from the serial per-experiment path", workers)
		}
	}
}

// TestRunAllSystemsSelector pins the -systems behavior: a selection keeps
// exactly its artifact groups, in paper order.
func TestRunAllSystemsSelector(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	err := RunAll(context.Background(), &sb, Options{Quick: true, Workers: runtime.NumCPU(), Systems: []string{"marenostrum"}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MareNostrum") {
		t.Fatalf("selection missing its system:\n%s", out)
	}
	for _, absent := range []string{"LUMI", "Leonardo", "Fugaku", "Fig. 1"} {
		if strings.Contains(out, absent) {
			t.Fatalf("selection %q leaked %q:\n%s", "marenostrum", absent, out)
		}
	}
	if err := RunAll(context.Background(), io.Discard, Options{Quick: true, Systems: []string{"nonesuch"}}); err == nil {
		t.Fatal("unknown system key accepted")
	}
}

// TestRunAllProgressCounters pins the per-system progress accounting: every
// job-graph cell reports exactly once, done counts ascend per system, and
// the final done equals the advertised total.
func TestRunAllProgressCounters(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	events := 0
	last := map[string]int{}
	totals := map[string]int{}
	progress := func(system string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		events++
		if done != last[system]+1 {
			t.Errorf("%s: done jumped %d -> %d", system, last[system], done)
		}
		last[system] = done
		totals[system] = total
	}
	err := RunAll(context.Background(), io.Discard, Options{Quick: true, Workers: runtime.NumCPU(), Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no progress events")
	}
	sum := 0
	for system, total := range totals {
		if last[system] != total {
			t.Errorf("%s: finished at %d of %d", system, last[system], total)
		}
		sum += total
	}
	if sum != events {
		t.Fatalf("%d events for %d cells", events, sum)
	}
	for _, system := range []string{"lumi", "leonardo", "marenostrum", "fugaku", "misc"} {
		if totals[system] == 0 {
			t.Errorf("no cells labeled %q", system)
		}
	}
}
