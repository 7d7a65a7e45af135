package harness

import (
	"context"
	"slices"
	"strings"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/pool"
)

func TestSystemsTopologies(t *testing.T) {
	for _, sys := range []System{LUMI(), Leonardo(), MareNostrum()} {
		topo, err := sys.TopologyFor(nil)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if topo.Nodes() != sys.Machine.Nodes() {
			t.Errorf("%s: %d nodes, want %d", sys.Name, topo.Nodes(), sys.Machine.Nodes())
		}
		if max := slices.Max(sys.NodeCounts); max > sys.Machine.Nodes() {
			t.Errorf("%s: sweeps %d nodes on a %d-node machine", sys.Name, max, sys.Machine.Nodes())
		}
	}
}

func TestVectorSizes(t *testing.T) {
	sizes := VectorSizes()
	if len(sizes) != 9 || sizes[0] != 32 || sizes[8] != 512<<20 {
		t.Fatalf("sizes %v", sizes)
	}
	if SizeLabel(32) != "32 B" || SizeLabel(2<<10) != "2 KiB" || SizeLabel(512<<20) != "512 MiB" {
		t.Error("labels")
	}
}

func TestPlacementsFragmentedAndComplete(t *testing.T) {
	sys := LUMI()
	pls, err := Placements(sys, []int{16, 64, 256})
	if err != nil {
		t.Fatal(err)
	}
	fragmented := false
	for p, nodes := range pls {
		if len(nodes) != p {
			t.Fatalf("placement for %d has %d nodes", p, len(nodes))
		}
		seen := map[int]bool{}
		for i, n := range nodes {
			if n < 0 || n >= sys.Machine.Nodes() || seen[n] {
				t.Fatalf("placement for %d invalid at %d", p, i)
			}
			seen[n] = true
			if i > 0 && nodes[i] != nodes[i-1]+1 {
				fragmented = true
			}
		}
	}
	if !fragmented {
		t.Error("all placements contiguous; workload did not fragment the machine")
	}
}

// drainSweep builds one collective's sweep with newSweep at explicit counts
// and sizes, drains its cells on a pool of the given width under ctx through
// a fresh Engine, and returns the filled sweep.
func drainSweep(ctx context.Context, sys System, collective coll.Collective, counts []int, sizes []int64, workers int) (*sweep, error) {
	c := newCompile(Options{})
	pl, err := c.placed(sys, counts)
	if err != nil {
		return nil, err
	}
	s := newSweep(c.Engine, sys, collective, pl, sizes)
	runner := pool.NewRunner(workers)
	defer runner.Close()
	if err := runner.ForEachCtx(ctx, len(s.tasks), func(i int) error { return s.tasks[i].run(ctx) }); err != nil {
		return nil, err
	}
	return s, nil
}

func TestSweepCollectiveShape(t *testing.T) {
	sys := LUMI()
	counts := []int{16, 32}
	sizes := []int64{32, 1 << 20}
	res, err := drainSweep(context.Background(), sys, coll.CAllreduce, counts, sizes, 0)
	if err != nil {
		t.Fatal(err)
	}
	bine := res.names(isBine)
	base := res.names(isBaseline)
	if len(bine) < 2 || len(base) < 3 {
		t.Fatalf("algo split: %d bine, %d baseline", len(bine), len(base))
	}
	for _, p := range counts {
		for _, size := range sizes {
			k := cellKey{P: p, Size: size}
			if _, _, ok := res.best(bine, k); !ok {
				t.Fatalf("no bine result for %+v", k)
			}
			name, c, ok := res.best(base, k)
			if !ok || c.Time <= 0 {
				t.Fatalf("no baseline result for %+v", k)
			}
			if l := familyLetter(res, name); l == "?" {
				t.Fatalf("unknown family for %s", name)
			}
		}
	}
}

func TestSweepLatencyVsBandwidthRegimes(t *testing.T) {
	// Sanity of the cost model's shape: for tiny vectors the
	// latency-optimized recursive doubling beats ring; for huge vectors on
	// few nodes ring wins (the paper's Fig. 10a shows exactly this
	// crossover).
	sys := LUMI()
	res, err := drainSweep(context.Background(), sys, coll.CAllreduce, []int{16}, []int64{32, 512 << 20}, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := cellKey{P: 16, Size: 32}
	huge := cellKey{P: 16, Size: 512 << 20}
	if res.Cells["ring"][small].Time < res.Cells["recursive-doubling"][small].Time {
		t.Error("ring should lose at 32 B")
	}
	if res.Cells["ring"][huge].Time > res.Cells["rabenseifner"][huge].Time {
		t.Error("ring should win at 512 MiB on 16 nodes")
	}
}

// runQuick renders one named experiment at quick scale through eng (nil: a
// fresh default Engine).
func runQuick(t *testing.T, eng *Engine, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := RunExperiment(context.Background(), &sb, name, Options{Quick: true, Engine: eng}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sb.String()
}

func TestExperimentDriversRunQuick(t *testing.T) {
	t.Parallel()
	// Every experiment family must run to completion and produce
	// non-trivial output.
	eng := &Engine{}
	for _, d := range []struct{ name, want string }{
		{"fig1", "6n global"},
		{"eq2", "0.6"},
		{"table5", "allreduce"},
		{"fig10a", "Bine best in"},
		{"fig11a", "alltoall"},
		{"fig14", "strategy"},
		{"fig11b", "allreduce"},
		{"hier", "hier-bine"},
		{"appD", "torus-optimized"},
		{"ppn", "ppn=4"},
		{"fig5", "LUMI"},
	} {
		if out := runQuick(t, eng, d.name); !strings.Contains(out, d.want) {
			t.Errorf("%s output missing %q:\n%s", d.name, d.want, out)
		}
	}
}

func TestFig1MatchesPaperNumbers(t *testing.T) {
	t.Parallel()
	out := runQuick(t, nil, "fig1")
	if !strings.Contains(out, "6n global") || !strings.Contains(out, "3n global") {
		t.Fatalf("Fig. 1 numbers missing:\n%s", out)
	}
}

func TestTorusBeatsFlatOnHops(t *testing.T) {
	t.Parallel()
	var flat, torus int
	for _, line := range strings.Split(runQuick(t, nil, "appD"), "\n") {
		if strings.Contains(line, "flat 1-D") {
			if _, err := fmtSscanfInt(line, &flat); err != nil {
				t.Fatal(err)
			}
		}
		if strings.Contains(line, "torus-optimized") {
			if _, err := fmtSscanfInt(line, &torus); err != nil {
				t.Fatal(err)
			}
		}
	}
	if torus <= 0 || flat <= 0 || torus >= flat {
		t.Fatalf("torus hops %d not below flat hops %d", torus, flat)
	}
}

// fmtSscanfInt extracts the first integer from a line.
func fmtSscanfInt(line string, out *int) (int, error) {
	for _, field := range strings.Fields(line) {
		var v int
		if _, err := sscanInt(field, &v); err == nil {
			*out = v
			return 1, nil
		}
	}
	return 0, errNoInt
}

var errNoInt = errString("no integer in line")

type errString string

func (e errString) Error() string { return string(e) }

func sscanInt(s string, out *int) (int, error) {
	v := 0
	if len(s) == 0 {
		return 0, errNoInt
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errNoInt
		}
		v = v*10 + int(r-'0')
	}
	*out = v
	return 1, nil
}

// TestSweepCollectiveCancel pins that a caller's cancellation reaches the
// sweep's cells: a pre-cancelled context drains nothing and the cancellation
// error surfaces from the drain — the invariant the ctxflow analyzer guards
// (a sweep driver once minted its own context.Background(), which silently
// detached every cell from the caller).
func TestSweepCollectiveCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := MareNostrum()
	_, err := drainSweep(ctx, sys, coll.CAllreduce, []int{16}, []int64{32}, 0)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	// A live context still sweeps: the same call, uncancelled, succeeds.
	res, err := drainSweep(context.Background(), sys, coll.CAllreduce, []int{16}, []int64{32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("uncancelled sweep produced no cells")
	}
}

// TestRunAllCancel pins the same cut-off one level up, on the flat
// cross-system job graph: a cancelled "all" run returns the cancellation
// error as is and renders nothing.
func TestRunAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := RunExperiment(ctx, &sb, "all", Options{Quick: true, Systems: []string{"misc"}})
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("cancelled run rendered %d bytes", sb.Len())
	}
}
