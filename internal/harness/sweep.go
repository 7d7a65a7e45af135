package harness

import (
	"context"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/netsim"
	"binetrees/internal/obs"
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
	// Systems restricts the "all" experiment to the artifact groups of the
	// named system keys (see SystemKeys); empty runs the whole suite. Single
	// experiments ignore it.
	Systems []string
	// Progress, when non-nil, observes every completed job-graph cell (see
	// ProgressFunc). Callbacks arrive from pool workers.
	Progress ProgressFunc
	// Engine resolves and caches the traces of every plan compiled under
	// these Options; plans sharing an Engine share its tiers and counters.
	// Nil gives the RunExperiment or CompileExperiment call a fresh default
	// Engine of its own (no disk tier, synthesis on), shared by all plans of
	// that call and held for the life of what it compiled.
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

// replay is the machine side of an evaluate cell: the network model and cost
// parameters, where each rank sits, and the vector sizes to score. A nil
// placement puts rank r on node r.
type replay struct {
	topo      topology.Topology
	params    netsim.Params
	placement []int
	sizes     []int64
}

// evaluate is the one body of every evaluate cell: resolve the schedule's
// trace, then — timed as the cell's evaluate stage — scale each vector size
// to bytes per recorded element (elems elements were recorded per vector) and
// to its local copy cost (copyFactor vector lengths), and score all sizes in
// one structural replay (netsim.EvaluateSizes derives each size's Result
// arithmetically from the shared per-step profile). The caller sets ev's
// Reduces and Overlap; evaluate fills in the placement and copy costs.
func (rp replay) evaluate(ctx context.Context, resolve func() (*fabric.Trace, error), elems int, copyFactor float64, ev netsim.Eval) ([]netsim.Result, error) {
	tr, err := resolve()
	if err != nil {
		return nil, err
	}
	defer obs.TimeStage(ctx, obs.StageEvaluate)()
	if ev.Placement = rp.placement; ev.Placement == nil {
		ev.Placement = make([]int, tr.P)
		for r := range ev.Placement {
			ev.Placement[r] = r
		}
	}
	elemBytes := make([]float64, len(rp.sizes))
	ev.CopyBytesAt = make([]float64, len(rp.sizes))
	for si, size := range rp.sizes {
		elemBytes[si] = float64(size) / float64(elems)
		ev.CopyBytesAt[si] = copyFactor * float64(size)
	}
	return netsim.EvaluateSizes(tr, rp.topo, rp.params, ev, elemBytes)
}

// evaluateAlgo is evaluate for a registry algorithm over p ranks, whose
// cached trace is recorded at unit block size and whose cost metadata the
// registry carries.
func (rp replay) evaluateAlgo(ctx context.Context, eng *Engine, algo coll.Algorithm, p int) ([]netsim.Result, error) {
	return rp.evaluate(ctx, func() (*fabric.Trace, error) { return eng.cachedTrace(ctx, algo, p, 0) },
		p, algo.CopyFactor, netsim.Eval{Reduces: algo.Coll.Reduces(), Overlap: algo.Overlap})
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
			rs, err := replay{topos[j.p], sys.Params, placements[j.p], sizes}.evaluateAlgo(ctx, eng, j.algo, j.p)
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
