package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"binetrees/internal/pool"
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

// TestShardedRunAllByteIdentical pins the tentpole guarantee: the flat
// cross-system job graph of the "all" experiment — every system's cells
// drained at once on one shared pool — renders byte-identically to the
// serial per-experiment path, at worker counts {1, NumCPU}, each run cold on
// an Engine of its own.
func TestShardedRunAllByteIdentical(t *testing.T) {
	t.Parallel()
	reference := serialSuite(t, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		var sb strings.Builder
		if err := RunExperiment(context.Background(), &sb, "all", Options{Quick: true, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sb.String() != reference {
			t.Fatalf("sharded all (workers=%d) diverges from the serial per-experiment path", workers)
		}
	}
}

// TestRunAllSystemsSelector pins the -systems behavior: a selection keeps
// exactly its artifact groups, in paper order.
func TestRunAllSystemsSelector(t *testing.T) {
	t.Parallel()
	var sb strings.Builder
	err := RunExperiment(context.Background(), &sb, "all", Options{Quick: true, Workers: runtime.NumCPU(), Systems: []string{"marenostrum"}})
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
	if err := RunExperiment(context.Background(), io.Discard, "all", Options{Quick: true, Systems: []string{"nonesuch"}}); err == nil {
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
	err := RunExperiment(context.Background(), io.Discard, "all", Options{Quick: true, Workers: runtime.NumCPU(), Progress: progress})
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

// TestAllIsTheSelectedExperiments pins what "all" compiles to: exactly the
// cells of the experiments its systems selection keeps — LUMI's share of the
// suite here — and, when one of them fails, an error naming the step the
// cell belongs to rather than "all".
func TestAllIsTheSelectedExperiments(t *testing.T) {
	t.Parallel()
	opts := Options{Quick: true, Systems: []string{"lumi"}}
	all, err := CompileExperiment("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, name := range []string{"fig5", "table3", "fig9a", "fig9b", "fig14", "ppn"} {
		e, err := CompileExperiment(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum += e.Tasks()
	}
	if all.Tasks() != sum || sum == 0 {
		t.Fatalf("all compiled %d cells, its experiments %d", all.Tasks(), sum)
	}

	boom := errors.New("boom")
	last := len(all.tasks) - 1 // a ppn cell: ppn is the selection's last step
	all.tasks[last].run = func(context.Context) error { return boom }
	runner := pool.NewRunner(1)
	defer runner.Close()
	var sb strings.Builder
	err = all.Run(context.Background(), &sb, runner, nil)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "harness: ppn: ") {
		t.Fatalf("failing ppn cell reported as %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("failed run rendered %d bytes", sb.Len())
	}
}
