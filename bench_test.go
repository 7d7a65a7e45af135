package binetrees

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/harness"
	"binetrees/internal/netsim"
	"binetrees/internal/synth"
	"binetrees/internal/topology"
	"binetrees/internal/tracestore"
)

// Execution microbenchmarks: real collective executions on the in-process
// fabric, one sub-benchmark per algorithm family, matching the paper's
// per-collective comparisons.

func benchAllreduce(b *testing.B, algo string, p, n int) {
	b.Helper()
	a, ok := coll.Find(coll.Registry(), coll.CAllreduce, algo)
	if !ok {
		b.Fatalf("algorithm %s not registered", algo)
	}
	run, err := a.Make(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	f := fabric.NewMem(p)
	defer f.Close()
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fabric.Run(f, func(c fabric.Comm) error {
			return run(coll.Offset(c, i<<16), 0, make([]int32, n), nil, coll.OpSum)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	const p, n = 64, 1 << 14
	for _, algo := range []string{"bine-bw", "bine-lat", "rabenseifner", "recursive-doubling", "ring", "swing"} {
		b.Run(algo, func(b *testing.B) { benchAllreduce(b, algo, p, n) })
	}
}

func BenchmarkReduceScatterStrategies(b *testing.B) {
	// The four non-contiguous-data strategies of Sec. 4.3.1 head to head.
	const p, n = 64, 1 << 14
	for _, algo := range []string{"bine-permute", "bine-send", "bine-block", "bine-two-trans", "recursive-halving"} {
		a, ok := coll.Find(coll.Registry(), coll.CReduceScatter, algo)
		if !ok {
			b.Fatalf("algorithm %s not registered", algo)
		}
		b.Run(algo, func(b *testing.B) {
			run, err := a.Make(p, 0)
			if err != nil {
				b.Fatal(err)
			}
			f := fabric.NewMem(p)
			defer f.Close()
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := fabric.Run(f, func(c fabric.Comm) error {
					out := make([]int32, n/p)
					return run(coll.Offset(c, i<<16), 0, make([]int32, n), out, coll.OpSum)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBcastTrees(b *testing.B) {
	const p, n = 128, 1 << 12
	for _, kind := range []core.Kind{core.BineDH, core.BinomialDD, core.BinomialDH} {
		b.Run(kind.String(), func(b *testing.B) {
			tree := core.MustTree(kind, p, 0)
			f := fabric.NewMem(p)
			defer f.Close()
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := fabric.Run(f, func(c fabric.Comm) error {
					return coll.Bcast(coll.Offset(c, i<<16), tree, make([]int32, n))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoreConstruction(b *testing.B) {
	// Schedule construction cost (amortized once per communicator in MPI).
	b.Run("tree-bine-dh-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewTree(core.BineDH, 4096, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("butterfly-bine-dd-4096", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewButterfly(core.BflyBineDD, 4096); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("negabinary-roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if core.NBToRank(core.RankToNB(i&1023, 1024), 1024) != i&1023 {
				b.Fatal("roundtrip")
			}
		}
	})
}

// Paper-artifact benchmarks: one per table and figure, each timing the full
// regeneration of that artifact (quick sweep; `binebench -full` runs the
// paper-scale version).

// benchArtifact times cold regenerations of one named experiment: opts
// carries no Engine, so every iteration — and every benchmark, regardless of
// run order — resolves its schedules from scratch on a fresh one.
func benchArtifact(b *testing.B, name string, opts harness.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := harness.RunExperiment(context.Background(), io.Discard, name, opts); err != nil {
			b.Fatal(err)
		}
	}
}

var quick = harness.Options{Quick: true}

func BenchmarkFig01Broadcast(b *testing.B)            { benchArtifact(b, "fig1", quick) }
func BenchmarkEq2Distances(b *testing.B)              { benchArtifact(b, "eq2", quick) }
func BenchmarkFig05AllocationStudy(b *testing.B)      { benchArtifact(b, "fig5", quick) }
func BenchmarkTable3LUMI(b *testing.B)                { benchArtifact(b, "table3", quick) }
func BenchmarkFig09aHeatmapLUMI(b *testing.B)         { benchArtifact(b, "fig9a", quick) }
func BenchmarkFig09bBoxplotsLUMI(b *testing.B)        { benchArtifact(b, "fig9b", quick) }
func BenchmarkTable4Leonardo(b *testing.B)            { benchArtifact(b, "table4", quick) }
func BenchmarkFig10aHeatmapLeonardo(b *testing.B)     { benchArtifact(b, "fig10a", quick) }
func BenchmarkFig10bBoxplotsLeonardo(b *testing.B)    { benchArtifact(b, "fig10b", quick) }
func BenchmarkTable5MareNostrum(b *testing.B)         { benchArtifact(b, "table5", quick) }
func BenchmarkFig11aBoxplotsMareNostrum(b *testing.B) { benchArtifact(b, "fig11a", quick) }
func BenchmarkFig11bFugaku(b *testing.B)              { benchArtifact(b, "fig11b", quick) }
func BenchmarkFig14Strategies(b *testing.B)           { benchArtifact(b, "fig14", quick) }
func BenchmarkHierarchicalAllreduce(b *testing.B)     { benchArtifact(b, "hier", quick) }
func BenchmarkAppDTorus(b *testing.B)                 { benchArtifact(b, "appD", quick) }

// BenchmarkSweepParallel tracks the worker-pool speedup of the sweep
// engine: the same quick allreduce sweep (heatmap artifact) on one worker
// vs one per CPU, every iteration cold.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			benchArtifact(b, "fig9a", harness.Options{Quick: true, Workers: workers})
		})
	}
}

// BenchmarkSweepStore tracks the persistent trace store: the same quick
// allreduce sweep (heatmap artifact) with no store, a cold store (resolves
// and writes through every schedule) and a warm store (loads every schedule
// from disk, zero resolutions). Every iteration runs on a fresh Engine, so
// the store tier is what's measured.
func BenchmarkSweepStore(b *testing.B) {
	sweep := func(b *testing.B, store *tracestore.Store) {
		opts := harness.Options{Quick: true, Engine: &harness.Engine{Store: store}}
		if err := harness.RunExperiment(context.Background(), io.Discard, "fig9a", opts); err != nil {
			b.Fatal(err)
		}
	}
	open := func(b *testing.B, dir string) *tracestore.Store {
		store, err := tracestore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		return store
	}
	b.Run("no-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, nil)
		}
	})
	b.Run("cold-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "tracestore-bench-*")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			sweep(b, open(b, dir))
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})
	b.Run("warm-store", func(b *testing.B) {
		store := open(b, b.TempDir())
		sweep(b, store) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, store)
		}
	})
}

// BenchmarkSynthRing tracks the cold-path trajectory record → synth for the
// suite's heaviest flat schedule (allreduce/ring): synthesis — the ring's
// plan, one class of p records and a 2(p−1)-step index, O(p + steps) —
// vs the same schedule executed on the recording goroutine fabric at
// p=1024, plus — skipped under -short — synthesis at the paper-scale p=8192
// the Fugaku sweep needs (~134 M logical sends, 8 192 stored records; the
// fabric leg stays at p=1024, where it already sends 2 M messages). Replay
// cost for comparison lives in BenchmarkEvaluateSizes/BENCH_pipeline.json.
func BenchmarkSynthRing(b *testing.B) {
	a := findAlgo(b, coll.CAllreduce, "ring")
	b.Run("synth-p1024", synthBench(a, 1024))
	b.Run("record-p1024", recordBench(a, 1024))
	if !testing.Short() {
		b.Run("synth-p8192", synthBench(a, 8192))
	}
}

// BenchmarkSynthAlltoall is the same record → synth pair for alltoall/bine,
// the log-step schedule whose per-rank walk regroups p/2 items per step: the
// synth side times its plan (one message per rank and step, no walk), the
// record side the real BineAlltoall body. pairwise-p1024 times the synthesis
// of the largest all-pairs trace, p−1 distinct steps of p records each.
func BenchmarkSynthAlltoall(b *testing.B) {
	a := findAlgo(b, coll.CAlltoall, "bine")
	b.Run("synth-p1024", synthBench(a, 1024))
	b.Run("record-p1024", recordBench(a, 1024))
	b.Run("pairwise-p1024", synthBench(findAlgo(b, coll.CAlltoall, "pairwise"), 1024))
}

// BenchmarkSynthButterfly times cold synthesis of two log-step butterfly
// schedules from their plans: Fig. 5's bfly-allreduce (AllreduceRsAg over
// the distance-doubling Bine butterfly, one contiguous position range per
// step) at p=2048, and reduce-scatter/bine-two-trans (one circular block
// run per step) at p=1024.
func BenchmarkSynthButterfly(b *testing.B) {
	b.Run("bfly-bine-dd-p2048", func(b *testing.B) {
		const p = 2048
		bfly := core.MustButterfly(core.BflyBineDD, p)
		for i := 0; i < b.N; i++ {
			s, err := coll.AllreduceRsAgPlan(bfly, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := synth.Schedule(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bine-two-trans-p1024", synthBench(findAlgo(b, coll.CReduceScatter, "bine-two-trans"), 1024))
}

// BenchmarkSynthTorus times cold synthesis of the Fugaku torus allreduces
// at paper-scale shapes as the trace resolver runs it, Pattern (which builds
// the butterflies once) and Schedule (the walk) per iteration: the Bine
// allreduce and its multi-ported variant on 64×64 (p = 4 096) and the
// Bucket baseline on 32×256 (p = 8 192), each over the p·2·NDims elements
// the harness records.
func BenchmarkSynthTorus(b *testing.B) {
	for _, c := range []struct {
		name string
		dims []int
	}{{"bine-torus", []int{64, 64}}, {"bine-multiport", []int{64, 64}}, {"bucket", []int{32, 256}}} {
		tor := core.MustTorus(c.dims...)
		a, ok := coll.Find(coll.TorusRegistry(tor), coll.CAllreduce, c.name)
		if !ok {
			b.Fatalf("torus allreduce %s not registered", c.name)
		}
		b.Run(fmt.Sprintf("%s-%dx%d", c.name, c.dims[0], c.dims[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := a.Pattern(tor.P(), 0, tor.P()*2*tor.NDims())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := synth.Schedule(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeTrace times the store-load layer's decode of one trace file
// at p=1024: alltoall/pairwise is the largest warm decode (p−1 distinct steps
// of p records each, ~1 M stored records), allreduce/ring a 2-class trace
// whose 2 M messages are 1,024 stored records and a 2(p−1)-step index.
func BenchmarkDecodeTrace(b *testing.B) {
	for _, tc := range []struct {
		c    coll.Collective
		name string
	}{{coll.CAlltoall, "pairwise"}, {coll.CAllreduce, "ring"}} {
		s, err := findAlgo(b, tc.c, tc.name).Pattern(1024, 0, 1024)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := synth.Schedule(s)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fabric.EncodeTrace(&buf, tr); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		b.Run(fmt.Sprintf("%s-p1024", tc.name), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, err := fabric.DecodeTraceBytes(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func findAlgo(b *testing.B, c coll.Collective, name string) coll.Algorithm {
	a, ok := coll.Find(coll.Registry(), c, name)
	if !ok {
		b.Fatalf("%v/%s not registered", c, name)
	}
	return a
}

// synthBench times one cold synthesis of a's schedule over p ranks.
func synthBench(a coll.Algorithm, p int) func(b *testing.B) {
	return func(b *testing.B) {
		s, err := a.Pattern(p, 0, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := synth.Schedule(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// recordBench times the oracle: the same schedule executed on the recording
// goroutine fabric.
func recordBench(a coll.Algorithm, p int) func(b *testing.B) {
	return func(b *testing.B) {
		run, err := a.Make(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		inLen, outLen := a.Coll.InOutLens(p, p)
		for i := 0; i < b.N; i++ {
			rec := fabric.NewRecorder(fabric.NewMem(p))
			err := fabric.Run(rec, func(c fabric.Comm) error {
				var out []int32
				if outLen > 0 {
					out = make([]int32, outLen)
				}
				return run(c, 0, make([]int32, inLen), out, coll.OpSum)
			})
			if err != nil {
				b.Fatal(err)
			}
			rec.Trace()
			rec.Close()
		}
	}
}

// BenchmarkEvaluateSizes compares one trace replay per size against one
// batched call over the paper's nine-size ladder: EvaluateSizes replays the
// topology once per call and derives each size arithmetically, returning
// bit-identical Results.
func BenchmarkEvaluateSizes(b *testing.B) {
	const p = 256
	a, ok := coll.Find(coll.Registry(), coll.CAllreduce, "bine-bw")
	if !ok {
		b.Fatal("bine-bw not registered")
	}
	run, err := a.Make(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec := fabric.NewRecorder(fabric.NewMem(p))
	err = fabric.Run(rec, func(c fabric.Comm) error {
		return run(c, 0, make([]int32, p), nil, coll.OpSum)
	})
	rec.Close()
	if err != nil {
		b.Fatal(err)
	}
	tr := rec.Trace()
	topo, err := topology.NewUpDown(topology.UpDownConfig{
		Name: "bench", Groups: 8, NodesPerGroup: p / 8, NICBW: 25e9, Oversub: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	placement := make([]int, p)
	for i := range placement {
		placement[i] = i
	}
	sizes := harness.VectorSizes()
	elemBytes := make([]float64, len(sizes))
	for si, size := range sizes {
		elemBytes[si] = float64(size) / float64(p)
	}
	params := harness.LUMI().Params
	b.Run("per-size-evaluate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, eb := range elemBytes {
				if _, err := netsim.EvaluateSizes(tr, topo, params, netsim.Eval{
					Placement: placement, Reduces: true,
				}, []float64{eb}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("evaluate-sizes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.EvaluateSizes(tr, topo, params, netsim.Eval{
				Placement: placement, Reduces: true,
			}, elemBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI measures the façade overhead end to end.
func BenchmarkPublicAPI(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run(fmt.Sprintf("allreduce-p%d", p), func(b *testing.B) {
			cl := NewCluster(p)
			defer cl.Close()
			n := p * 64
			b.SetBytes(int64(4 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := cl.Run(func(r *Rank) error {
					return r.Allreduce(make([]int32, n))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
