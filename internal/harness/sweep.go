package harness

import (
	"context"
	"fmt"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/netsim"
	"binetrees/internal/obs"
	"binetrees/internal/pool"
	"binetrees/internal/synth"
	"binetrees/internal/topology"
)

// Options tune experiment scope.
type Options struct {
	// Quick trims node counts and vector sizes so the full suite runs in
	// seconds (used by tests and the default CLI mode).
	Quick bool
	// Workers bounds the sweep engine's worker pool; <= 0 selects
	// pool.DefaultWorkers (one per CPU). Every artifact is byte-identical
	// regardless of the setting.
	Workers int
	// Systems restricts RunAll to the artifact groups of the named system
	// keys (see SystemKeys); empty runs the whole suite. Single experiments
	// ignore it.
	Systems []string
	// Progress, when non-nil, observes every completed job-graph cell (see
	// ProgressFunc). Callbacks arrive from pool workers.
	Progress ProgressFunc
	// Engine resolves and caches the traces of every plan compiled under
	// these Options; plans sharing an Engine share its tiers and counters.
	// Nil gives the RunAll, RunAllOn, RunExperiment or CompileExperiment
	// call a fresh default Engine of its own (no disk tier, synthesis on),
	// shared by all plans of that call and held for the life of what it
	// compiled.
	Engine *Engine
}

// withEngine returns o with a fresh default Engine in place of a nil one.
func (o Options) withEngine() Options {
	if o.Engine == nil {
		o.Engine = &Engine{}
	}
	return o
}

func (o Options) nodeCounts(sys System) []int {
	if !o.Quick {
		return sys.NodeCounts
	}
	var out []int
	for _, p := range sys.NodeCounts {
		if p <= 128 {
			out = append(out, p)
		}
	}
	return out
}

func (o Options) sizes() []int64 {
	all := VectorSizes()
	if !o.Quick {
		return all
	}
	return []int64{all[0], all[2], all[4], all[6], all[8]}
}

// blockTraceCap bounds trace recording for algorithms whose message count
// grows quadratically with the rank count (block-by-block, Swing, sparbit);
// beyond it the harness skips them, as the paper trims its own largest runs
// (Sec. 5.2.1).
const blockTraceCap = 512

func quadratic(name string) bool {
	switch name {
	case "bine-block", "swing", "sparbit":
		return true
	}
	return false
}

// cell is one evaluated (algorithm, node count, vector size) data point.
type cell struct {
	Time   float64
	Global float64
}

// cellKey addresses a sweep cell.
type cellKey struct {
	P    int
	Size int64
}

// sweepResult holds every algorithm's cells for one collective.
type sweepResult struct {
	Algos []coll.Algorithm
	Cells map[string]map[cellKey]cell
}

// recordTrace executes the algorithm once at unit block size (n = p
// elements) on a recording in-process fabric and returns its trace.
func recordTrace(algo coll.Algorithm, p, root int) (*fabric.Trace, error) {
	run, err := algo.Make(p, root)
	if err != nil {
		return nil, err
	}
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	n := p
	err = fabric.Run(rec, func(c fabric.Comm) error {
		inLen, outLen := algo.Coll.InOutLens(p, n)
		in := make([]int32, inLen)
		var out []int32
		if outLen > 0 {
			out = make([]int32, outLen)
		}
		return run(c, root, in, out, coll.OpSum)
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %v/%s p=%d: %w", algo.Coll, algo.Name, p, err)
	}
	return rec.Trace(), nil
}

// synthTrace emits the algorithm's unit-granularity trace directly from
// schedule math (internal/synth) — the cold-path replacement for
// recordTrace, which stays on as the verification oracle. The two are
// byte-identical under the trace codec for every registered algorithm
// (internal/synth's equivalence suite and CI's -verify-synth gate).
func synthTrace(algo coll.Algorithm, p, root int) (*fabric.Trace, error) {
	s, err := algo.Pattern(p, root, p)
	if err != nil {
		return nil, err
	}
	tr, err := synth.Schedule(s)
	if err != nil {
		return nil, fmt.Errorf("harness: %v/%s p=%d: %w", algo.Coll, algo.Name, p, err)
	}
	return tr, nil
}

// planSweep compiles one collective's sweep — every applicable algorithm
// over the node counts and sizes on the system's fragmented placements —
// into flat-graph tasks. Each (node count, algorithm) cell writes into its
// own slot of an index-addressed slice; finish merges the slots in
// deterministic order into the sweepResult, so the result — and every
// artifact rendered from it — is byte-identical to a serial evaluation.
// Call finish only after every task has run (render time); it caches the
// merge, so multiple renders are free.
func planSweep(eng *Engine, sys System, collective coll.Collective, counts []int, sizes []int64) ([]task, func() *sweepResult, error) {
	placements, err := Placements(sys, counts)
	if err != nil {
		return nil, nil, err
	}
	var algos []coll.Algorithm
	for _, a := range coll.ByCollective(coll.Registry(), collective) {
		if !sys.ExcludesAlgorithm(a.Name) {
			algos = append(algos, a)
		}
	}
	// The topology share depends only on the placement; build each count's
	// model once, up front, and let the tasks share it read-only.
	topos := make(map[int]topology.Topology, len(counts))
	for _, p := range counts {
		topo, err := sys.TopologyFor(placements[p])
		if err != nil {
			return nil, nil, err
		}
		topos[p] = topo
	}
	type job struct {
		p    int
		algo coll.Algorithm
	}
	var jobs []job
	for _, p := range counts {
		for _, algo := range algos {
			if quadratic(algo.Name) && p > blockTraceCap {
				continue
			}
			jobs = append(jobs, job{p: p, algo: algo})
		}
	}
	outs := make([][]cell, len(jobs))
	tasks := make([]task, len(jobs))
	for i := range jobs {
		i := i
		tasks[i] = task{system: sys.Key, run: func(ctx context.Context) error {
			j := jobs[i]
			tr, err := eng.cachedTrace(ctx, j.algo, j.p, 0)
			if err != nil {
				return err
			}
			defer obs.TimeStage(ctx, obs.StageEvaluate)()
			// One structural replay scores every vector size of the cell:
			// EvaluateSizes derives each size's Result arithmetically from
			// the shared per-step profile, exactly matching per-size
			// Evaluate calls.
			elemBytes := make([]float64, len(sizes))
			copyBytes := make([]float64, len(sizes))
			for si, size := range sizes {
				elemBytes[si] = float64(size) / float64(j.p)
				copyBytes[si] = j.algo.CopyFactor * float64(size)
			}
			rs, err := netsim.EvaluateSizes(tr, topos[j.p], sys.Params, netsim.Eval{
				Placement:   placements[j.p],
				Reduces:     collective.Reduces(),
				Overlap:     j.algo.Overlap,
				CopyBytesAt: copyBytes,
			}, elemBytes)
			if err != nil {
				return err
			}
			cells := make([]cell, len(sizes))
			for si := range sizes {
				cells[si] = cell{Time: rs[si].Time, Global: rs[si].GlobalBytes}
			}
			outs[i] = cells
			return nil
		}}
	}
	var res *sweepResult
	finish := func() *sweepResult {
		if res != nil {
			return res
		}
		res = &sweepResult{Algos: algos, Cells: map[string]map[cellKey]cell{}}
		for _, algo := range algos {
			res.Cells[algo.Name] = map[cellKey]cell{}
		}
		for i, j := range jobs {
			for si, size := range sizes {
				res.Cells[j.algo.Name][cellKey{P: j.p, Size: size}] = outs[i][si]
			}
		}
		return res
	}
	return tasks, finish, nil
}

// sweepCollective is the standalone form of planSweep: it drains the tasks
// on its own pool of the given width, resolving traces through a fresh
// Engine, and returns the merged result. ctx bounds cell dispatch — a
// cancelled caller stops submitting cells and the cancellation error
// surfaces here (pinned by TestSweepCollectiveCancel).
func sweepCollective(ctx context.Context, sys System, collective coll.Collective, counts []int, sizes []int64, workers int) (*sweepResult, error) {
	tasks, finish, err := planSweep(&Engine{}, sys, collective, counts, sizes)
	if err != nil {
		return nil, err
	}
	if err := pool.ForEachCtx(ctx, workers, len(tasks), func(i int) error { return tasks[i].run(ctx) }); err != nil {
		return nil, err
	}
	return finish(), nil
}

// best returns the fastest algorithm among the given names for a cell.
func (s *sweepResult) best(names []string, k cellKey) (string, cell, bool) {
	bestName := ""
	var bestCell cell
	for _, name := range names {
		c, ok := s.Cells[name][k]
		if !ok {
			continue
		}
		if bestName == "" || c.Time < bestCell.Time {
			bestName, bestCell = name, c
		}
	}
	return bestName, bestCell, bestName != ""
}

// names filters algorithm names by predicate.
func (s *sweepResult) names(pred func(coll.Algorithm) bool) []string {
	var out []string
	for _, a := range s.Algos {
		if pred(a) {
			out = append(out, a.Name)
		}
	}
	return out
}

func isBine(a coll.Algorithm) bool     { return a.Bine }
func isBinomial(a coll.Algorithm) bool { return a.Binomial }
func isBaseline(a coll.Algorithm) bool { return !a.Bine }

// torusAlgo is a Fugaku-specific algorithm entry (the registry covers flat
// networks; torus algorithms need the geometry).
type torusAlgo struct {
	Name    string
	Coll    coll.Collective
	Bine    bool
	Overlap float64
	Run     func(c fabric.Comm, tor core.Torus, root int, in, out []int32, op coll.Op) error
	// VecMult is the required divisibility of the recorded element count
	// beyond p (multiport slices).
	VecMult int
}

func torusAlgos() []torusAlgo {
	return []torusAlgo{
		{Name: "bine-torus", Coll: coll.CAllreduce, Bine: true,
			Run: func(c fabric.Comm, tor core.Torus, _ int, in, _ []int32, op coll.Op) error {
				return coll.TorusAllreduce(c, tor, in, op)
			}},
		{Name: "bine-multiport", Coll: coll.CAllreduce, Bine: true,
			Run: func(c fabric.Comm, tor core.Torus, _ int, in, _ []int32, op coll.Op) error {
				return coll.TorusMultiportAllreduce(c, tor, in, op)
			}},
		{Name: "bucket", Coll: coll.CAllreduce,
			Run: func(c fabric.Comm, tor core.Torus, _ int, in, _ []int32, op coll.Op) error {
				return coll.BucketAllreduce(c, tor, in, op)
			}},
		{Name: "bine-bcast", Coll: coll.CBcast, Bine: true,
			Run: func(c fabric.Comm, tor core.Torus, root int, in, _ []int32, op coll.Op) error {
				return coll.TorusBcast(c, tor, core.BineDH, root, in)
			}},
		{Name: "bine-reduce", Coll: coll.CReduce, Bine: true,
			Run: func(c fabric.Comm, tor core.Torus, root int, in, out []int32, op coll.Op) error {
				return coll.TorusReduce(c, tor, core.BineDH, root, in, out, op)
			}},
	}
}

// torusRecordedElems is the block granularity a torus algorithm records at;
// it is deterministic in the algorithm and geometry, so the trace caches
// fold it into the schedule identity without executing anything.
func torusRecordedElems(ta torusAlgo, tor core.Torus) int {
	mult := ta.VecMult
	if mult == 0 {
		mult = 2 * tor.NDims() // safe for every per-dimension split
	}
	return tor.P() * mult
}

// recordTorusTrace executes a torus algorithm at small block granularity.
func recordTorusTrace(ta torusAlgo, tor core.Torus, root int) (*fabric.Trace, error) {
	p := tor.P()
	n := torusRecordedElems(ta, tor)
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	err := fabric.Run(rec, func(c fabric.Comm) error {
		inLen, outLen := ta.Coll.InOutLens(p, n)
		in := make([]int32, inLen)
		var out []int32
		if outLen > 0 {
			out = make([]int32, outLen)
		}
		return ta.Run(c, tor, root, in, out, coll.OpSum)
	})
	if err != nil {
		return nil, fmt.Errorf("harness: torus %v/%s %v: %w", ta.Coll, ta.Name, tor.Dims, err)
	}
	return rec.Trace(), nil
}

// synthTorusTrace is synthTrace for torus-geometry algorithms: the same
// schedule body recordTorusTrace runs on the fabric, walked serially over
// pattern endpoints instead.
func synthTorusTrace(ta torusAlgo, tor core.Torus, root int) (*fabric.Trace, error) {
	p := tor.P()
	n := torusRecordedElems(ta, tor)
	tr, err := synth.Run(p, func(c fabric.Comm) error {
		inLen, outLen := ta.Coll.InOutLens(p, n)
		in := make([]int32, inLen)
		var out []int32
		if outLen > 0 {
			out = make([]int32, outLen)
		}
		return ta.Run(c, tor, root, in, out, coll.OpSum)
	})
	if err != nil {
		return nil, fmt.Errorf("harness: torus %v/%s %v: %w", ta.Coll, ta.Name, tor.Dims, err)
	}
	return tr, nil
}

// recordBody executes an ad-hoc schedule body on the recording goroutine
// fabric — the oracle/fallback leg of cachedNamedTrace.
func recordBody(kind, name string, p int, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	if err := fabric.Run(rec, fn); err != nil {
		return nil, fmt.Errorf("harness: %s/%s p=%d: %w", kind, name, p, err)
	}
	return rec.Trace(), nil
}

// evaluateOnTorusSizes scores a recorded trace on the torus network at every
// vector size in one replay.
func evaluateOnTorusSizes(tr *fabric.Trace, recordedElems int, topo *topology.Torus, sizes []int64, reduces bool, overlap float64) ([]netsim.Result, error) {
	placement := make([]int, tr.P)
	for i := range placement {
		placement[i] = i
	}
	elemBytes := make([]float64, len(sizes))
	for si, size := range sizes {
		elemBytes[si] = float64(size) / float64(recordedElems)
	}
	return netsim.EvaluateSizes(tr, topo, FugakuParams(), netsim.Eval{
		Placement: placement,
		Reduces:   reduces,
		Overlap:   overlap,
	}, elemBytes)
}
