package netsim

import (
	"sync"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// algoTrace records a registry algorithm at unit block granularity (n = p
// elements), the way the harness does.
func algoTrace(t testing.TB, algo coll.Algorithm, p int) *fabric.Trace {
	t.Helper()
	run, err := algo.Make(p, 0)
	if err != nil {
		t.Fatalf("%v/%s: %v", algo.Coll, algo.Name, err)
	}
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	err = fabric.Run(rec, func(c fabric.Comm) error {
		inLen, outLen := algo.Coll.InOutLens(p, p)
		in := make([]int32, inLen)
		var out []int32
		if outLen > 0 {
			out = make([]int32, outLen)
		}
		return run(c, 0, in, out, coll.OpSum)
	})
	if err != nil {
		t.Fatalf("%v/%s: %v", algo.Coll, algo.Name, err)
	}
	return rec.Trace()
}

func testTopologies(t *testing.T, p int) map[string]topology.Topology {
	t.Helper()
	updown, err := topology.NewUpDown(topology.UpDownConfig{
		Name: "updown", Groups: 4, NodesPerGroup: p / 4, NICBW: 25e9, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dfly, err := topology.NewDragonfly(topology.DragonflyConfig{
		Name: "dfly", Groups: 4, NodesPerGroup: p / 4, NICBW: 25e9, GlobalBW: 50e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorus(topology.TorusConfig{
		Name: "torus", Dims: []int{4, p / 4}, NICBW: 6.8e9, LinkBW: 6.8e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]topology.Topology{
		"flat":      topology.NewFlat("flat", p, 25e9),
		"updown":    updown,
		"dragonfly": dfly,
		"torus":     torus,
	}
}

// TestEvaluateSizesSharedTopology pins the property the sweep pool relies
// on: any number of goroutines replay against ONE topology instance — no
// per-goroutine copy, no lock — and each gets exactly (==) the serial
// Result. Run under -race: a route computation that touched shared state
// would be reported here.
func TestEvaluateSizesSharedTopology(t *testing.T) {
	const p, goroutines = 16, 8
	elemBytes := []float64{4, 1e6 / 384.0}
	params := testParams()
	params.PerHopLatency = 3e-7
	// One reducing schedule (exercises the receive scratch) and the
	// pairwise alltoall (routes every ordered node pair).
	registry := coll.Registry()
	for _, sched := range []struct {
		c    coll.Collective
		name string
	}{{coll.CAllreduce, "ring"}, {coll.CAlltoall, "pairwise"}} {
		c := sched.c
		algo, ok := coll.Find(registry, c, sched.name)
		if !ok {
			t.Fatalf("%v/%s not registered", c, sched.name)
		}
		tr := algoTrace(t, algo, p)
		ev := Eval{Placement: identity(p), Reduces: algo.Coll.Reduces(), Overlap: algo.Overlap}
		for name, topo := range testTopologies(t, p) {
			want, err := EvaluateSizes(tr, topo, params, ev, elemBytes)
			if err != nil {
				t.Fatalf("%v on %s: %v", c, name, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 10; rep++ {
						got, err := EvaluateSizes(tr, topo, params, ev, elemBytes)
						if err != nil {
							t.Errorf("%v on %s: %v", c, name, err)
							return
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("%v on %s, elemBytes=%v: concurrent %+v, serial %+v", c, name, elemBytes[i], got[i], want[i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

func TestEvaluateSizesErrors(t *testing.T) {
	tr := fabric.NewTrace(4, []fabric.Record{{From: 0, To: 1, Elems: 1}})
	topo := topology.NewFlat("f", 4, 10e9)
	// Short placement fails.
	if _, err := EvaluateSizes(tr, topo, testParams(), Eval{Placement: identity(2)}, []float64{1}); err == nil {
		t.Fatal("short placement accepted")
	}
	// Mismatched per-size copy costs fail.
	if _, err := EvaluateSizes(tr, topo, testParams(), Eval{
		Placement: identity(4), CopyBytesAt: []float64{1, 2, 3},
	}, []float64{1}); err == nil {
		t.Fatal("mismatched CopyBytesAt accepted")
	}
	// Without CopyBytesAt the shared CopyBytes applies to every size.
	p := testParams()
	rs, err := EvaluateSizes(tr, topo, p, Eval{Placement: identity(4), CopyBytes: 1e9}, []float64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, eb := range []float64{4, 8} {
		if want := referenceEvaluate(tr, topo, p, Eval{Placement: identity(4), CopyBytes: 1e9}, eb); rs[i] != want {
			t.Fatalf("size %d: batched %+v != reference %+v", i, rs[i], want)
		}
	}
}
