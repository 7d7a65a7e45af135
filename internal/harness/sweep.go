package harness

import (
	"context"
	"fmt"

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

// compile is the state of one CompileExperiment call: the Options every plan
// reads, plus what plans would otherwise each rebuild — the fragmented
// placements with their network models, and the sweeps evaluated on them
// (tables, heatmaps and boxplots are views of one per-system campaign). It is
// single-goroutine and dies with its Experiment, so nothing is ever evicted.
type compile struct {
	Options
	placements map[string]*placedJobs // by system key + count sequence
	sweeps     map[string]*sweep      // by system key + collective
	// cells holds the tasks of sweeps created since CompileExperiment last
	// folded them into the plan being compiled.
	cells []task
}

// newCompile puts a fresh default Engine in place of a nil opts.Engine.
func newCompile(opts Options) *compile {
	if opts.Engine == nil {
		opts.Engine = &Engine{}
	}
	return &compile{Options: opts, placements: map[string]*placedJobs{}, sweeps: map[string]*sweep{}}
}

// placedJobs is one Placements call — a rank→node map per node count — and
// the network model each placed job sees, shared read-only by every cell.
type placedJobs struct {
	counts []int
	nodes  map[int][]int
	topos  map[int]topology.Topology
}

// placed places counts on sys once per (system, count sequence): Placements
// is deterministic in the whole sequence, so [64] alone is another key — and
// another placement of 64 nodes — than a sweep's counts containing 64.
func (c *compile) placed(sys System, counts []int) (*placedJobs, error) {
	key := fmt.Sprint(sys.Key, counts)
	if pl := c.placements[key]; pl != nil {
		return pl, nil
	}
	nodes, err := Placements(sys, counts)
	if err != nil {
		return nil, err
	}
	pl := &placedJobs{counts, nodes, make(map[int]topology.Topology, len(counts))}
	for _, p := range counts {
		if pl.topos[p], err = sys.TopologyFor(nodes[p]); err != nil {
			return nil, err
		}
	}
	c.placements[key] = pl
	return pl, nil
}

// sweep returns the compile's one sweep of collective on sys, at the node
// counts and sizes the Options select. Creating it adds its cells to the plan
// being compiled; finding it adds nothing, so a render may read slots that an
// earlier step's tasks fill.
func (c *compile) sweep(sys System, collective coll.Collective) (*sweep, error) {
	key := sys.Key + "/" + collective.String()
	if s := c.sweeps[key]; s != nil {
		return s, nil
	}
	pl, err := c.placed(sys, c.nodeCounts(sys))
	if err != nil {
		return nil, err
	}
	s := newSweep(c.Engine, sys, collective, pl, c.sizes())
	c.sweeps[key] = s
	c.cells = append(c.cells, s.tasks...)
	return s, nil
}

// sweepAll returns sys's sweep of every collective, in coll.Collectives order.
func (c *compile) sweepAll(sys System) ([]*sweep, error) {
	var out []*sweep
	for _, collective := range coll.Collectives {
		s, err := c.sweep(sys, collective)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// sweep is one collective's sweep: every applicable algorithm's cells over
// the placed node counts and the sizes. Every slot of Cells exists from
// construction and is filled by exactly one task, so nothing is merged and
// whatever renders from it — only after every task has run — is
// byte-identical to a serial evaluation.
type sweep struct {
	Algos []coll.Algorithm
	Cells map[string]map[cellKey]*cell
	tasks []task // one per (node count, algorithm)
}

func newSweep(eng *Engine, sys System, collective coll.Collective, pl *placedJobs, sizes []int64) *sweep {
	s := &sweep{Cells: map[string]map[cellKey]*cell{}}
	for _, a := range coll.ByCollective(coll.Registry(), collective) {
		if !sys.ExcludesAlgorithm(a.Name) {
			s.Algos = append(s.Algos, a)
			s.Cells[a.Name] = map[cellKey]*cell{}
		}
	}
	for _, p := range pl.counts {
		for _, algo := range s.Algos {
			if quadratic(algo.Name) && p > blockTraceCap {
				continue
			}
			slots := make([]cell, len(sizes))
			for si, size := range sizes {
				s.Cells[algo.Name][cellKey{P: p, Size: size}] = &slots[si]
			}
			s.tasks = append(s.tasks, task{system: sys.Key, run: func(ctx context.Context) error {
				rs, err := replay{pl.topos[p], sys.Params, pl.nodes[p], sizes}.evaluateAlgo(ctx, eng, algo, p)
				for si := range rs {
					slots[si] = cell{Time: rs[si].Time, Global: rs[si].GlobalBytes}
				}
				return err
			}})
		}
	}
	return s
}

// best returns the fastest algorithm among the given names for a cell.
func (s *sweep) best(names []string, k cellKey) (string, cell, bool) {
	bestName := ""
	var bestCell cell
	for _, name := range names {
		c, ok := s.Cells[name][k]
		if !ok {
			continue
		}
		if bestName == "" || c.Time < bestCell.Time {
			bestName, bestCell = name, *c
		}
	}
	return bestName, bestCell, bestName != ""
}

// names filters algorithm names by predicate.
func (s *sweep) names(pred func(coll.Algorithm) bool) []string {
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

// torusRecordedElems is the block granularity every torus algorithm records
// at — p blocks of 2·NDims elements, divisible by every per-dimension split;
// it is deterministic in the geometry, so the trace caches fold it into the
// schedule identity without executing anything.
func torusRecordedElems(tor core.Torus) int { return tor.P() * 2 * tor.NDims() }
