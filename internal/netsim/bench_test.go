package netsim

import (
	"fmt"
	"sync"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// ringTrace builds the fig11b hot spot in miniature: a p-rank ring
// reduce-scatter + allgather schedule, 2(p−1) steps of p unit messages.
func ringTrace(p int) *fabric.Trace {
	steps := 2 * (p - 1)
	recs := make([]fabric.Record, 0, p*steps)
	for s := 0; s < steps; s++ {
		for r := 0; r < p; r++ {
			recs = append(recs, fabric.Record{From: r, To: (r + 1) % p, Step: s, Elems: 1})
		}
	}
	return fabric.NewTrace(p, recs)
}

// BenchmarkProfileRing measures the structural replay (profile) of a ring
// schedule — the netsim hot path of every sweep cell — on a torus and a
// flat model. The replay reuses dense scratch and one route buffer, so
// allocs/op stays flat in the message count. It shares one topology across
// iterations from one goroutine; BenchmarkProfileSweepCell is the shape
// the sweeps actually produce.
func BenchmarkProfileRing(b *testing.B) {
	const p = 256
	tr := ringTrace(p)
	placement := make([]int, p)
	for i := range placement {
		placement[i] = i
	}
	params := testParams()
	tor, err := topology.NewTorus(topology.TorusConfig{
		Name: "tor", Dims: []int{16, 16}, NICBW: 6.8e9, LinkBW: 6.8e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	topos := map[string]topology.Topology{
		"torus": tor,
		"flat":  topology.NewFlat("flat", p, 25e9),
	}
	for _, name := range []string{"torus", "flat"} {
		topo := topos[name]
		b.Run(fmt.Sprintf("%s-p%d", name, p), func(b *testing.B) {
			b.SetBytes(int64(tr.Messages()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := evaluateAt(tr, topo, params, Eval{Placement: placement, Reduces: true}, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileAlltoall is the replay as a sweep's cells produce it: a fresh
// topology per node count (so nothing carries over between iterations), an
// alltoall routing all p(p−1) ordered node pairs, replayed from two
// goroutines at once against that one instance.
func BenchmarkProfileAlltoall(b *testing.B) {
	const p, workers = 512, 2
	recs := make([]fabric.Record, 0, p*(p-1))
	for s := 1; s < p; s++ {
		for r := 0; r < p; r++ {
			recs = append(recs, fabric.Record{From: r, To: (r + s) % p, Step: s - 1, Elems: 1})
		}
	}
	tr := fabric.NewTrace(p, recs)
	placement := identity(p)
	params := testParams()
	b.Run(fmt.Sprintf("dragonfly-p%d-w%d", p, workers), func(b *testing.B) {
		b.SetBytes(int64(workers * tr.Messages()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topo, err := topology.NewDragonfly(topology.DragonflyConfig{
				Name: "dfly", Groups: 16, NodesPerGroup: p / 16, NICBW: 25e9, GlobalBW: 50e9,
			})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := evaluateAt(tr, topo, params, Eval{Placement: placement}, 4); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}

// BenchmarkProfileSweepCell is one evaluate cell as a quick sweep runs it: a
// 16-rank Bine allreduce (reduce-scatter + allgather, 8 steps) scored at the
// paper's nine vector sizes on the whole 6 504-link LUMI Dragonfly that
// System.TopologyFor builds for every LUMI cell, with the cells shared by
// two goroutines as a two-worker sweep shares them. The replay's dense
// scratch is sized by the link count, not the job, so this is where its
// per-call cost shows; one op is one cell.
func BenchmarkProfileSweepCell(b *testing.B) {
	const p, workers = 16, 2
	algo, ok := coll.Find(coll.Registry(), coll.CAllreduce, "bine-bw")
	if !ok {
		b.Fatal("allreduce/bine-bw not registered")
	}
	tr := algoTrace(b, algo, p)
	topo := lumiDragonfly(b)
	ev := Eval{Placement: spreadPlacement(p, topo.Nodes()), Reduces: true, Overlap: algo.Overlap}
	var elemBytes []float64
	for size := 32.0; size <= 512<<20; size *= 8 {
		elemBytes = append(elemBytes, size/p)
	}
	params := testParams()
	b.Run(fmt.Sprintf("lumi-p%d-w%d", p, workers), func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < b.N; i += workers {
					if _, err := EvaluateSizes(tr, topo, params, ev, elemBytes); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
