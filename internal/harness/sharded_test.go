package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/pool"
	"binetrees/internal/topology"
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

// TestAllIsTheSelectedExperiments pins what "all" compiles to: the distinct
// cells of the experiments its systems selection keeps — LUMI's share of the
// suite here. table3 creates every LUMI sweep, so fig9a, fig9b and fig14 add
// no cells after it, while each of them compiled alone still owns its cells;
// and when a cell fails, the error names the step that created it rather
// than "all".
func TestAllIsTheSelectedExperiments(t *testing.T) {
	t.Parallel()
	opts := Options{Quick: true, Systems: []string{"lumi"}}
	tasksOf := func(name string) int {
		e, err := CompileExperiment(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e.Tasks()
	}
	all, err := CompileExperiment("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := tasksOf("fig5") + tasksOf("table3") + tasksOf("ppn"); all.Tasks() != want || all.Tasks() != 206 {
		t.Fatalf("all compiled %d cells, fig5 + table3 + ppn %d, want 206", all.Tasks(), want)
	}
	for name, want := range map[string]int{"table3": 188, "fig9b": 188, "fig9a": 32, "fig14": 40} {
		if got := tasksOf(name); got != want {
			t.Errorf("%s alone compiled %d cells, want %d", name, got, want)
		}
	}
	for i, p := range all.plans {
		if name := all.steps[i].name; (name == "fig9a" || name == "fig9b" || name == "fig14") != (len(p.tasks) == 0) {
			t.Errorf("%s contributes %d cells to all", name, len(p.tasks))
		}
	}

	// Fail a sweep cell that fig9a, fig9b and fig14 only read: it is table3's.
	boom := errors.New("boom")
	shared := len(all.plans[0].tasks) // fig5's cells come first, then table3's
	all.tasks[shared].run = func(context.Context) error { return boom }
	runner := pool.NewRunner(1)
	defer runner.Close()
	var sb strings.Builder
	err = all.Run(context.Background(), &sb, runner, nil)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "harness: table3: ") {
		t.Fatalf("failing shared cell reported as %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("failed run rendered %d bytes", sb.Len())
	}
}

// TestAllSharesSweeps pins the count a private copy would move: "all"
// compiles each distinct cell once, at every scale. A planner that builds its
// own sweep again adds every one of its cells here — and replays them from
// the memory tier when drained, which TestSynthMatchesRecordedOracle counts.
func TestAllSharesSweeps(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		opts Options
		want int // distinct (system, collective, node count, algorithm) cells + the non-sweep cells
	}{
		{Options{}, 1082},
		{Options{Systems: []string{"lumi"}}, 347},
		{Options{Quick: true}, 711},
	} {
		e, err := CompileExperiment("all", tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if e.Tasks() != tc.want {
			t.Errorf("all (quick=%v systems=%v) compiled %d cells, want %d", tc.opts.Quick, tc.opts.Systems, e.Tasks(), tc.want)
		}
	}
}

// TestCompileSharesPlacementsAndSweeps pins the compile's two memos: one
// sweep per (system, collective), one Placements + TopologyFor pass per
// (system, count sequence) — and ppn's [64] is a sequence of its own, whose
// placement of 64 nodes is not the sweeps'.
func TestCompileSharesPlacementsAndSweeps(t *testing.T) {
	t.Parallel()
	c := newCompile(Options{Quick: true})
	sys := LUMI()
	first, err := c.sweep(sys, coll.CAllreduce)
	if err != nil {
		t.Fatal(err)
	}
	created := len(c.cells)
	if again, _ := c.sweep(sys, coll.CAllreduce); again != first || len(c.cells) != created || created != len(first.tasks) {
		t.Fatalf("second sweep call: same value %v, %d cells pending after %d", again == first, len(c.cells), created)
	}
	if other, _ := c.sweep(sys, coll.CAllgather); other == first || len(c.cells) != created+len(other.tasks) {
		t.Fatal("another collective must be another sweep adding its own cells")
	}
	if leo, _ := c.sweep(Leonardo(), coll.CAllreduce); leo == first {
		t.Fatal("another system must be another sweep")
	}
	swept, err := c.placed(sys, c.nodeCounts(sys))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.placed(sys, c.nodeCounts(sys)); again != swept || len(c.placements) != 2 {
		t.Fatalf("sweeps of two systems left %d placements, same value %v", len(c.placements), again == swept)
	}
	// Leonardo's tapered model is each count's own.
	leo, err := c.placed(Leonardo(), c.nodeCounts(Leonardo()))
	if err != nil || len(c.placements) != 2 {
		t.Fatalf("Leonardo's sweep placement was not memoized (%d placements): %v", len(c.placements), err)
	}
	owner := map[topology.Topology]int{}
	for _, p := range leo.counts {
		if q, ok := owner[leo.topos[p]]; ok {
			t.Errorf("Leonardo's %d- and %d-node jobs share one tapered model", q, p)
		}
		owner[leo.topos[p]] = p
	}
	if _, err := planPPN(c); err != nil {
		t.Fatal(err)
	}
	alone, _ := c.placed(sys, []int{64})
	if alone == swept || len(c.placements) != 3 {
		t.Fatalf("ppn's [64] shares the sweeps' key (%d placements)", len(c.placements))
	}
	if slices.Equal(alone.nodes[64], swept.nodes[64]) {
		t.Fatal("64 nodes placed alone landed where the sweeps' p=64 did; reusing it would go unnoticed")
	}
	want, err := Placements(sys, []int{64})
	if err != nil || !slices.Equal(alone.nodes[64], want[64]) {
		t.Fatalf("placed([64]) is not Placements([64]): %v", err)
	}
}
