package netsim

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// lumiDragonfly is the whole LUMI machine model as System.TopologyFor builds
// it for every LUMI cell: 24 groups of 124 nodes, 6 504 links.
func lumiDragonfly(t testing.TB) *topology.Dragonfly {
	t.Helper()
	topo, err := topology.NewDragonfly(topology.DragonflyConfig{
		Name: "lumi", Groups: 24, NodesPerGroup: 124,
		NICBW: topology.GbpsToBytes(200), GlobalBW: topology.GbpsToBytes(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// smallDragonfly is a 64-node Dragonfly with LUMI's bandwidths.
func smallDragonfly(t testing.TB) *topology.Dragonfly {
	t.Helper()
	topo, err := topology.NewDragonfly(topology.DragonflyConfig{
		Name: "dfly64", Groups: 4, NodesPerGroup: 16,
		NICBW: topology.GbpsToBytes(200), GlobalBW: topology.GbpsToBytes(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// groupedPlacement places p ranks perGroup to a group, on the first nodes of
// consecutive groups of nodesPerGroup nodes, so a job's routes have the same
// shape on any machine with that many groups or more.
func groupedPlacement(p, perGroup, nodesPerGroup int) []int {
	out := make([]int, p)
	for r := range out {
		out[r] = r/perGroup*nodesPerGroup + r%perGroup
	}
	return out
}

// spreadPlacement places p ranks evenly over nodes nodes.
func spreadPlacement(p, nodes int) []int {
	out := make([]int, p)
	for r := range out {
		out[r] = r * (nodes / p)
	}
	return out
}

// scratchInput is one trace and the cost-model flags it is replayed with.
type scratchInput struct {
	name    string
	tr      *fabric.Trace
	reduces bool
	overlap float64
}

// scratchInputs are traces of 8, 16 and 64 ranks, reducing and not, with
// few and many step classes.
func scratchInputs(t testing.TB) []scratchInput {
	t.Helper()
	registry := coll.Registry()
	var out []scratchInput
	for _, sched := range []struct {
		c    coll.Collective
		name string
		p    int
	}{
		{coll.CAllreduce, "bine-bw", 16},
		{coll.CAlltoall, "pairwise", 16},
		{coll.CAllreduce, "ring", 64},
		{coll.CBcast, "bine-tree", 8},
	} {
		algo, ok := coll.Find(registry, sched.c, sched.name)
		if !ok {
			t.Fatalf("%v/%s not registered", sched.c, sched.name)
		}
		out = append(out, scratchInput{sched.c.String() + "/" + sched.name,
			algoTrace(t, algo, sched.p), algo.Coll.Reduces(), algo.Overlap})
	}
	return append(out, scratchInput{"repeated steps", repeatedStepsTrace(32), true, 0.3})
}

// dyadicSizes are element scales at which the profile reproduces
// referenceEvaluate bit for bit (see TestEvaluateMatchesSeedReference).
var dyadicSizes = []float64{0.25, 4, 4096, 1 << 16}

// TestPooledScratchNeverLeaksIntoResults replays traces of different rank
// counts, with and without receive volumes, on topologies of 140, 6 504 and
// 320 links from several goroutines at once, each walking the cells in its
// own order, so pooled scratch moves between shapes and goroutines
// constantly. Every Result must equal the seed's reference replay.
func TestPooledScratchNeverLeaksIntoResults(t *testing.T) {
	torus, err := topology.NewTorus(topology.TorusConfig{
		Name: "torus", Dims: []int{8, 8}, NICBW: 6.8e9, LinkBW: 6.8e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{smallDragonfly(t), lumiDragonfly(t), torus}
	params := testParams()
	params.PerHopLatency = 3e-7
	type cell struct {
		name string
		tr   *fabric.Trace
		topo topology.Topology
		ev   Eval
		want []Result
	}
	var cells []cell
	for _, in := range scratchInputs(t) {
		for _, topo := range topos {
			c := cell{name: in.name + " on " + topo.Name(), tr: in.tr, topo: topo, ev: Eval{
				Placement: spreadPlacement(in.tr.P, topo.Nodes()),
				Reduces:   in.reduces, Overlap: in.overlap, CopyBytes: 1e6,
			}}
			for _, eb := range dyadicSizes {
				c.want = append(c.want, referenceEvaluate(c.tr, topo, params, c.ev, eb))
			}
			cells = append(cells, c)
		}
	}
	// Strides co-prime with len(cells) = 15: each goroutine visits every
	// cell once per round, in its own order.
	strides := []int{1, 2, 7, 11}
	const rounds = 6
	var wg sync.WaitGroup
	for g, stride := range strides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(cells); i++ {
				c := cells[(g+i*stride)%len(cells)]
				got, err := EvaluateSizes(c.tr, c.topo, params, c.ev, dyadicSizes)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				for k := range got {
					if got[k] != c.want[k] {
						t.Errorf("%s, elemBytes=%v: pooled %+v, reference %+v", c.name, dyadicSizes[k], got[k], c.want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScratchGenerationWraps starts a scratch's generation counter just
// below math.MaxInt32, with stale stamps from early in the epoch planted in
// every stamp array, and replays past the wrap. The stamps must be cleared
// when the counter restarts — the planted ones would otherwise be read as
// live by the first generations after it — so every result equals the
// reference replay, and no stamp ever exceeds the counter.
func TestScratchGenerationWraps(t *testing.T) {
	topo := smallDragonfly(t)
	params := testParams()
	inputs := scratchInputs(t)
	sc := &scratch{}
	sc.reserve(topo.NumLinks(), 64, 0, true)
	for _, stamps := range [][]int32{sc.loadGen, sc.recvGen, sc.sendGen} {
		for i := range stamps {
			stamps[i] = int32(i%8 + 1)
		}
	}
	for i := range sc.loadVal {
		sc.loadVal[i] = 1 << 40
	}
	for i := range sc.recvVal {
		sc.recvVal[i], sc.sendCnt[i] = 1<<40, 1<<20
	}
	sc.gen = math.MaxInt32 - 5
	wraps := 0
	for round := 0; round < 3; round++ {
		for _, in := range inputs {
			ev := Eval{Placement: spreadPlacement(in.tr.P, topo.Nodes()), Reduces: in.reduces, Overlap: in.overlap}
			before := sc.gen
			pf, err := profile(in.tr, topo, ev, sc)
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			if sc.gen < before {
				wraps++
			}
			for _, stamps := range [][]int32{sc.loadGen, sc.recvGen, sc.sendGen} {
				for i, g := range stamps {
					if g > sc.gen {
						t.Fatalf("%s: stamp %d = %d exceeds the counter %d", in.name, i, g, sc.gen)
					}
				}
			}
			for _, eb := range dyadicSizes {
				if got, want := pf.result(params, ev, eb, 0), referenceEvaluate(in.tr, topo, params, ev, eb); got != want {
					t.Fatalf("round %d, %s, elemBytes=%v (counter %d → %d):\n      got %+v\nreference %+v",
						round, in.name, eb, before, sc.gen, got, want)
				}
			}
		}
	}
	if wraps != 1 {
		t.Fatalf("counter wrapped %d times, want 1", wraps)
	}
}

// TestEvaluateSizesAllocsIndependentOfLinkTable pins what the scratch pool
// buys: a 16-rank cell allocates the same objects, and the same bytes give
// or take a few pool refills, on the whole 6 504-link LUMI Dragonfly as on a
// 140-link one. The placement gives both the same route shapes.
func TestEvaluateSizesAllocsIndependentOfLinkTable(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	algo, ok := coll.Find(coll.Registry(), coll.CAllreduce, "bine-bw")
	if !ok {
		t.Fatal("allreduce/bine-bw not registered")
	}
	tr := algoTrace(t, algo, 16)
	sizes := []float64{4, 32, 256, 2048, 16384}
	const runs = 200
	measure := func(topo *topology.Dragonfly) (allocs, bytes float64) {
		ev := Eval{Placement: groupedPlacement(16, 4, topo.Nodes()/topo.NumGroups()), Reduces: true, Overlap: algo.Overlap}
		run := func() {
			if _, err := EvaluateSizes(tr, topo, testParams(), ev, sizes); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, lumi := smallDragonfly(t), lumiDragonfly(t)
	smallAllocs, smallBytes := measure(small)
	lumiAllocs, lumiBytes := measure(lumi)
	if lumiAllocs != smallAllocs {
		t.Errorf("allocs per EvaluateSizes: %v on %d links, %v on %d links", lumiAllocs, lumi.NumLinks(), smallAllocs, small.NumLinks())
	}
	// A link-count-sized allocation per call is 6 504 × 12 B ≈ 76 KiB; a
	// refill after the pool is dropped by two GCs costs 1/runs of that.
	if lumiBytes > smallBytes+4096 {
		t.Errorf("bytes per EvaluateSizes: %.0f on %d links, %.0f on %d links", lumiBytes, lumi.NumLinks(), smallBytes, small.NumLinks())
	}
}
