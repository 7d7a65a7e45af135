package harness

import (
	"context"
	"fmt"
	"io"
	"slices"

	"binetrees/internal/alloc"
	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/netsim"
	"binetrees/internal/stats"
	"binetrees/internal/topology"
)

// Every experiment below compiles to a plan (see graph.go): recording and
// evaluation cells become tasks writing into index-addressed slots, and the
// artifact renders serially from those slots. Cells resolve their traces
// through the Engine their plan was compiled with (Options.Engine).

// planFig1 reproduces the motivating example of Fig. 1: global-link bytes of a
// broadcast over eight nodes on a 2:1 oversubscribed fat tree with two
// nodes per leaf, for the distance-doubling (Open MPI), distance-halving
// (MPICH) and Bine trees.
func planFig1(c *compile) (*plan, error) {
	const p, n = 8, 1 // eight nodes, unit vector; results are per n bytes
	groupOf := []int{0, 0, 1, 1, 2, 2, 3, 3}
	kinds := []core.Kind{core.BinomialDD, core.BinomialDH, core.BineDH}
	trees := make([]*core.Tree, len(kinds))
	for i, k := range kinds {
		tree, err := core.NewTree(k, p, 0)
		if err != nil {
			return nil, err
		}
		trees[i] = tree
	}
	traces := make([]*fabric.Trace, len(kinds))
	tasks := make([]task, len(kinds))
	for i := range kinds {
		tasks[i] = task{system: systemMisc, run: func(ctx context.Context) error {
			tr, err := c.Engine.cachedNamedTrace(ctx, "tree-bcast", kinds[i].String(), fmt.Sprintf("p=%d/n=%d", p, n), p, func(c fabric.Comm) error {
				return coll.Bcast(c, trees[i], make([]int32, n))
			})
			if err != nil {
				return err
			}
			traces[i] = tr
			return nil
		}}
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Fig. 1 — broadcast over 8 nodes, 2 nodes per leaf switch (bytes on global links, per n bytes of vector):")
		for i, k := range kinds {
			algoName := map[core.Kind]string{
				core.BinomialDD: "distance-doubling binomial (Open MPI)",
				core.BinomialDH: "distance-halving binomial (MPICH)",
				core.BineDH:     "distance-halving Bine",
			}[k]
			global, total := netsim.GlobalTraffic(traces[i], groupOf)
			fmt.Fprintf(w, "  %-42s %dn global of %dn total\n", algoName, global, total)
		}
		fmt.Fprintln(w, "  paper: 6n (distance doubling) vs 3n (distance halving)")
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}

// planEq2 tabulates the per-step modular distances of Bine vs binomial
// schedules and their ratio, illustrating the 2/3 bound of Sec. 2.4.1.
func planEq2(*compile) (*plan, error) {
	// Pure schedule arithmetic: no cells, everything happens at render.
	render := func(w io.Writer) error {
		p := 1024
		bine := core.MustButterfly(core.BflyBineDH, p)
		binom := core.MustButterfly(core.BflyBinomialDH, p)
		fmt.Fprintf(w, "Eq. 2 — per-step modular distance, p=%d (bound: ratio → 2/3 ≈ 0.667):\n", p)
		fmt.Fprintf(w, "  %-6s %10s %10s %8s\n", "step", "binomial", "bine", "ratio")
		for i := 0; i < bine.S; i++ {
			db, dn := bine.ModDistAt(i), binom.ModDistAt(i)
			fmt.Fprintf(w, "  %-6d %10d %10d %8.3f\n", i, dn, db, float64(db)/float64(dn))
		}
		return nil
	}
	return &plan{render: render}, nil
}

// fig5Case is one machine of the Fig. 5 allocation study: a churning
// workload warmed up for fig5Warmup arrivals, then sampled for jobs more.
type fig5Case struct {
	name    string
	key     string
	machine alloc.Machine
	jobs    int
	maxP    int
	seed    int64
}

// fig5Warmup is how many arrivals reach steady-state fragmentation before
// the Fig. 5 study samples its jobs.
const fig5Warmup = 800

// fig5Cases returns the study's Leonardo-like and LUMI-like machines, with
// fewer and smaller jobs at quick scale.
func fig5Cases(quick bool) []fig5Case {
	cases := []fig5Case{
		{"Leonardo", "leonardo", alloc.Machine{Groups: 23, NodesPerGroup: 180}, 1116, 256, 3},
		{"LUMI", "lumi", alloc.Machine{Groups: 24, NodesPerGroup: 124}, 1914, 2048, 4},
	}
	if quick {
		for i := range cases {
			cases[i].jobs = 200
			cases[i].maxP = 256
		}
	}
	return cases
}

// planFig5 reproduces the allocation study of Sec. 2.4.2: synthetic fragmented
// job allocations on Leonardo-like and LUMI-like machines, reporting the
// distribution of global-traffic reduction of a Bine allreduce over the
// binomial allreduce with the same distance ordering, bucketed by node
// count.
func planFig5(c *compile) (*plan, error) {
	cases := fig5Cases(c.Quick)
	kinds := [2]core.ButterflyKind{core.BflyBineDD, core.BflyBinomialDD}
	allreduceTrace := func(ctx context.Context, kind core.ButterflyKind, p int) (*fabric.Trace, error) {
		b, err := core.NewButterfly(kind, p)
		if err != nil {
			return nil, err
		}
		s, err := coll.AllreduceRsAgPlan(b, p)
		if err != nil {
			return nil, err
		}
		return c.Engine.cachedNamedPlan(ctx, "bfly-allreduce", kind.String(), fmt.Sprintf("p=%d/n=%d", p, p), p, s, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, b, make([]int32, p), coll.OpSum)
		})
	}
	// The workload replay is deterministic, so the job lists — and from
	// them every needed (kind, rank count) recording — are enumerable at
	// plan time. Each case records only the rank counts no earlier case
	// needed; the recorded traces land in per-case index-addressed slots.
	type recSlot struct {
		p     int
		cases [2]*fabric.Trace // recorded {bine, binomial} pair
	}
	caseJobs := make([][]alloc.Job, len(cases))
	caseMissing := make([][]*recSlot, len(cases))
	seen := map[int]bool{}
	var tasks []task
	for ci, sc := range cases {
		wl := FragmentingWorkload(sc.machine, sc.maxP, sc.seed)
		wl.Advance(fig5Warmup) // reach steady-state fragmentation before sampling
		caseJobs[ci] = wl.Run(sc.jobs)
		for _, job := range caseJobs[ci] {
			p := len(job.Nodes)
			if p < 16 || p&(p-1) != 0 {
				continue // the study buckets power-of-two jobs ≥ 16 nodes
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			slot := &recSlot{p: p}
			caseMissing[ci] = append(caseMissing[ci], slot)
			for ki := range kinds {
				tasks = append(tasks, task{system: sc.key, run: func(ctx context.Context) error {
					tr, err := allreduceTrace(ctx, kinds[ki], slot.p)
					if err != nil {
						return err
					}
					slot.cases[ki] = tr
					return nil
				}})
			}
		}
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Fig. 5 — global-traffic reduction of Bine vs binomial allreduce across synthetic Slurm-like allocations")
		fmt.Fprintln(w, "(boxplots per job size; theoretical bound 33%, Eq. 2):")
		traces := map[int][2]*fabric.Trace{} // p → {bine, binomial}
		for ci, sc := range cases {
			for _, slot := range caseMissing[ci] {
				traces[slot.p] = slot.cases
			}
			buckets := map[int][]float64{}
			var groups []int // rank → group of the job being bucketed
			for _, job := range caseJobs[ci] {
				p := len(job.Nodes)
				if p < 16 || p&(p-1) != 0 {
					continue
				}
				groups = groups[:0]
				for _, node := range job.Nodes {
					groups = append(groups, sc.machine.GroupOf(node))
				}
				tr := traces[p]
				bine, _ := netsim.GlobalTraffic(tr[0], groups)
				binom, _ := netsim.GlobalTraffic(tr[1], groups)
				if binom == 0 {
					continue // single-group job: no global traffic at all
				}
				buckets[p] = append(buckets[p], 100*(1-float64(bine)/float64(binom)))
			}
			fmt.Fprintf(w, "\n  %s (%d jobs placed):\n", sc.name, len(caseJobs[ci]))
			fmt.Fprintf(w, "  %-7s %-52s %s\n", "nodes", "reduction %  [-20 ... 40]", "summary")
			var ps []int
			for p := range buckets {
				ps = append(ps, p)
			}
			slices.Sort(ps)
			for _, p := range ps {
				box := stats.NewBox(buckets[p])
				fmt.Fprintf(w, "  %-7d %-52s %s\n", p, box.Render(-20, 40, 52), box)
			}
		}
		fmt.Fprintln(w, "\n  paper: median reductions grow with job size, bounded by 33%; small jobs can regress")
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}

// planTableBinomial reproduces the per-system Bine-vs-binomial comparison
// (Tables 3, 4 and 5): for every collective, the fraction of
// configurations won/lost against the best binomial baseline, the
// average/max gain and drop, and the average/max global-traffic reduction.
func planTableBinomial(c *compile, sys System) (*plan, error) {
	counts, sizes := c.nodeCounts(sys), c.sizes()
	sweeps, err := c.sweepAll(sys)
	if err != nil {
		return nil, err
	}
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "Bine vs binomial trees on %s (nodes %v, %d vector sizes)\n", sys.Name, counts, len(sizes))
		fmt.Fprintf(w, "  %-15s %6s %15s %6s %15s %18s\n",
			"collective", "%win", "avg/max gain", "%loss", "avg/max drop", "avg/max traffic red")
		for ci, collective := range coll.Collectives {
			res := sweeps[ci]
			bineNames := res.names(isBine)
			binomNames := res.names(isBinomial)
			var bineTimes, binomTimes, reds []float64
			for _, p := range counts {
				for _, size := range sizes {
					k := cellKey{P: p, Size: size}
					_, bc, ok1 := res.best(bineNames, k)
					_, nc, ok2 := res.best(binomNames, k)
					if !ok1 || !ok2 {
						continue
					}
					bineTimes = append(bineTimes, bc.Time)
					binomTimes = append(binomTimes, nc.Time)
					if nc.Global > 0 {
						reds = append(reds, 100*(1-bc.Global/nc.Global))
					}
				}
			}
			wl := stats.NewWinLoss(bineTimes, binomTimes)
			var avgRed, maxRed float64
			if len(reds) > 0 {
				sum := 0.0
				for _, r := range reds {
					sum += r
					if r > maxRed {
						maxRed = r
					}
				}
				avgRed = sum / float64(len(reds))
			}
			fmt.Fprintf(w, "  %-15s %5.0f%% %6.0f%%/%5.0f%% %5.0f%% %6.0f%%/%5.0f%% %8.0f%%/%7.0f%%\n",
				collective, wl.WinPct, wl.AvgGain, wl.MaxGain,
				wl.LossPct, wl.AvgDrop, wl.MaxDrop, avgRed, maxRed)
		}
		return nil
	}
	return &plan{render: render}, nil
}

// familyLetter maps baseline algorithms to the single letters of the
// paper's heatmaps: N = binomial, R = ring, D = other state of the art.
func familyLetter(res *sweep, name string) string {
	for _, a := range res.Algos {
		if a.Name == name {
			switch {
			case a.Binomial:
				return "N"
			case a.Name == "ring":
				return "R"
			default:
				return "D"
			}
		}
	}
	return "?"
}

// planHeatmapAllreduce reproduces Figs. 9a/10a: for every (node count, vector
// size) cell of the allreduce sweep, either the Bine speedup over the best
// baseline (when Bine wins) or the letter of the winning baseline.
func planHeatmapAllreduce(c *compile, sys System) (*plan, error) {
	counts, sizes := c.nodeCounts(sys), c.sizes()
	res, err := c.sweep(sys, coll.CAllreduce)
	if err != nil {
		return nil, err
	}
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "Allreduce heatmap on %s (cell = Bine speedup vs best baseline, or winning baseline letter;\n", sys.Name)
		fmt.Fprintln(w, " N = binomial, R = ring, D = other):")
		fmt.Fprintf(w, "  %-9s", "")
		for _, p := range counts {
			fmt.Fprintf(w, " %6d", p)
		}
		fmt.Fprintln(w)
		bineNames, baseNames := res.names(isBine), res.names(isBaseline)
		bineWins := 0
		cells := 0
		for _, size := range sizes {
			fmt.Fprintf(w, "  %-9s", SizeLabel(size))
			for _, p := range counts {
				k := cellKey{P: p, Size: size}
				_, bc, ok1 := res.best(bineNames, k)
				bn, nc, ok2 := res.best(baseNames, k)
				switch {
				case !ok1 || !ok2:
					fmt.Fprintf(w, " %6s", "-")
				case bc.Time <= nc.Time:
					bineWins++
					cells++
					fmt.Fprintf(w, " %6.2f", nc.Time/bc.Time)
				default:
					cells++
					fmt.Fprintf(w, " %6s", familyLetter(res, bn))
				}
			}
			fmt.Fprintln(w)
		}
		if cells > 0 {
			fmt.Fprintf(w, "  Bine best in %d/%d cells (%.0f%%)\n", bineWins, cells, 100*float64(bineWins)/float64(cells))
		}
		return nil
	}
	return &plan{render: render}, nil
}

// planBoxplots reproduces Figs. 9b/10b/11a: for every collective, the
// distribution of Bine's improvement over the best baseline in the
// configurations where Bine wins, plus the win percentage.
func planBoxplots(c *compile, sys System) (*plan, error) {
	counts, sizes := c.nodeCounts(sys), c.sizes()
	sweeps, err := c.sweepAll(sys)
	if err != nil {
		return nil, err
	}
	render := func(w io.Writer) error {
		fmt.Fprintf(w, "Per-collective improvement over the best baseline on %s (cells where Bine wins):\n", sys.Name)
		fmt.Fprintf(w, "  %-15s %-6s %-46s %s\n", "collective", "win%", "improvement %  [0 ... 100]", "summary")
		for ci, collective := range coll.Collectives {
			res := sweeps[ci]
			bineNames, baseNames := res.names(isBine), res.names(isBaseline)
			var improvements []float64
			cells := 0
			for _, p := range counts {
				for _, size := range sizes {
					k := cellKey{P: p, Size: size}
					_, bc, ok1 := res.best(bineNames, k)
					_, nc, ok2 := res.best(baseNames, k)
					if !ok1 || !ok2 {
						continue
					}
					cells++
					if bc.Time < nc.Time {
						improvements = append(improvements, 100*(nc.Time/bc.Time-1))
					}
				}
			}
			box := stats.NewBox(improvements)
			win := 0.0
			if cells > 0 {
				win = 100 * float64(len(improvements)) / float64(cells)
			}
			fmt.Fprintf(w, "  %-15s %4.0f%%  %-46s %s\n", collective, win, box.Render(0, 100, 46), box)
		}
		return nil
	}
	return &plan{render: render}, nil
}

// planFig14 reproduces Appendix B: which non-contiguous-data strategy wins each
// (node count, vector size) cell of the allgather sweep on the LUMI-like
// system, and its gain over the binomial butterfly.
func planFig14(c *compile) (*plan, error) {
	sys := LUMI()
	counts, sizes := c.nodeCounts(sys), c.sizes()
	res, err := c.sweep(sys, coll.CAllgather)
	if err != nil {
		return nil, err
	}
	render := func(w io.Writer) error {
		// In the order best breaks ties; stratLetters[i] labels stratNames[i].
		stratNames := []string{"bine-block", "bine-permute", "bine-send", "bine-two-trans"}
		const stratLetters = "BPST"
		fmt.Fprintln(w, "Fig. 14 — best non-contiguous-data strategy per allgather cell on LUMI")
		fmt.Fprintln(w, "(B = block-by-block, P = permute, S = send, T = two transmissions; value = gain vs recursive doubling):")
		fmt.Fprintf(w, "  %-9s", "")
		for _, p := range counts {
			fmt.Fprintf(w, " %8d", p)
		}
		fmt.Fprintln(w)
		for _, size := range sizes {
			fmt.Fprintf(w, "  %-9s", SizeLabel(size))
			for _, p := range counts {
				k := cellKey{P: p, Size: size}
				name, bc, ok1 := res.best(stratNames, k)
				nc, ok2 := res.Cells["recursive-doubling"][k]
				if !ok1 || !ok2 {
					fmt.Fprintf(w, " %8s", "-")
					continue
				}
				fmt.Fprintf(w, " %c %5.2fx", stratLetters[slices.Index(stratNames, name)], nc.Time/bc.Time)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "  paper: permute wins small vectors, send takes over at scale, block-by-block and")
		fmt.Fprintln(w, "  two-transmissions split the large-vector regime")
		return nil
	}
	return &plan{render: render}, nil
}

// planFig11b reproduces the Fugaku evaluation (Sec. 5.4): Bine torus
// collectives against bucket, ring and butterfly baselines over the paper's
// job shapes, as per-collective improvement boxplots.
func planFig11b(c *compile) (*plan, error) {
	shapes := FugakuShapes()
	if c.Quick {
		shapes = [][]int{{2, 2, 2}, {4, 4, 4}, {8, 2}}
	}
	sizes := c.sizes()
	// Each group's Bine candidates and baselines: the torus algorithms of
	// coll.TorusRegistry and flat registry algorithms run on the torus.
	type group struct {
		collective coll.Collective
		bine, base []string
	}
	groups := []group{
		{coll.CAllreduce, []string{"bine-torus", "bine-multiport"}, []string{"bucket", "ring", "rabenseifner", "recursive-doubling"}},
		{coll.CBcast, []string{"bine-bcast"}, []string{"binomial-dd", "binomial-dh", "linear"}},
		{coll.CReduce, []string{"bine-reduce"}, []string{"binomial-dd", "binomial-dh", "linear"}},
		{coll.CReduceScatter, []string{"bine-permute", "bine-send"}, []string{"recursive-halving", "ring"}},
		{coll.CAllgather, []string{"bine-permute", "bine-send"}, []string{"recursive-doubling", "ring", "bruck"}},
	}
	registry := coll.Registry()
	// Every shape is shared by every collective group; build the geometry,
	// its torus algorithms and the network model once, up front.
	tors := make([]core.Torus, len(shapes))
	torusAlgos := make([][]coll.Algorithm, len(shapes))
	topos := make([]*topology.Torus, len(shapes))
	for i, dims := range shapes {
		tors[i] = core.MustTorus(dims...)
		torusAlgos[i] = coll.TorusRegistry(tors[i])
		topo, err := FugakuTopology(dims)
		if err != nil {
			return nil, err
		}
		topos[i] = topo
	}
	// One eval cell per (collective group, shape, algorithm), appended in
	// the serial evaluation order: a group's Bine candidates followed by its
	// baselines. Each cell records — or fetches from the trace cache — its
	// schedule and scores every size; results land in the cell's own slot of
	// an index-addressed slice.
	type evalJob struct {
		shape int
		algo  coll.Algorithm
		torus bool // from coll.TorusRegistry, not coll.Registry
	}
	var jobs []evalJob
	for _, g := range groups {
		for si := range shapes {
			for _, name := range slices.Concat(g.bine, g.base) {
				if algo, ok := coll.Find(torusAlgos[si], g.collective, name); ok {
					jobs = append(jobs, evalJob{shape: si, algo: algo, torus: true})
				} else if algo, ok := coll.Find(registry, g.collective, name); ok {
					jobs = append(jobs, evalJob{shape: si, algo: algo})
				} else {
					return nil, fmt.Errorf("%v/%s not registered", g.collective, name)
				}
			}
		}
	}
	outs := make([]map[int64]float64, len(jobs))
	tasks := make([]task, len(jobs))
	for i, j := range jobs {
		tasks[i] = task{system: systemFugaku, run: func(ctx context.Context) error {
			tor := tors[j.shape]
			rp := replay{topo: topos[j.shape], params: FugakuParams(), sizes: sizes}
			if _, pow2 := core.Log2(tor.P()); j.algo.Pow2Only && !pow2 {
				return nil // skipped: a nil slot folds as no result
			}
			resolve, elems := func() (*fabric.Trace, error) { return c.Engine.cachedTrace(ctx, j.algo, tor.P(), 0) }, tor.P()
			if j.torus {
				resolve, elems = func() (*fabric.Trace, error) { return c.Engine.cachedTorusTrace(ctx, j.algo, tor, 0) }, torusRecordedElems(tor)
			}
			rs, err := rp.evaluate(ctx, resolve, elems, j.algo.CopyFactor, netsim.Eval{Reduces: j.algo.Coll.Reduces(), Overlap: j.algo.Overlap})
			if err != nil {
				return err
			}
			out := make(map[int64]float64, len(sizes))
			for si, size := range sizes {
				out[size] = rs[si].Time
			}
			outs[i] = out
			return nil
		}}
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Fugaku (6D-torus model) — Bine improvement over the best baseline per collective:")
		// Fold and render serially in the original (group, shape) order;
		// min is order-independent, so the boxplots match the serial
		// engine exactly.
		fold := func(dst, src map[int64]float64) {
			for size, t := range src {
				if cur, ok := dst[size]; !ok || t < cur {
					dst[size] = t
				}
			}
		}
		jobIdx := 0
		for _, g := range groups {
			var improvements []float64
			cells, wins := 0, 0
			for range shapes {
				bineTimes := map[int64]float64{}
				baseTimes := map[int64]float64{}
				for k := range len(g.bine) + len(g.base) {
					if k < len(g.bine) {
						fold(bineTimes, outs[jobIdx])
					} else {
						fold(baseTimes, outs[jobIdx])
					}
					jobIdx++
				}
				for _, size := range sizes {
					bt, ok1 := bineTimes[size]
					nt, ok2 := baseTimes[size]
					if !ok1 || !ok2 {
						continue
					}
					cells++
					if bt < nt {
						wins++
						improvements = append(improvements, 100*(nt/bt-1))
					}
				}
			}
			box := stats.NewBox(improvements)
			win := 0.0
			if cells > 0 {
				win = 100 * float64(wins) / float64(cells)
			}
			fmt.Fprintf(w, "  %-15s %4.0f%%  %-46s %s\n", g.collective, win, box.Render(0, 400, 46), box)
		}
		fmt.Fprintln(w, "  paper: up to 5x for reduce-scatter/allreduce; broadcast and reduce face vendor-tuned torus algorithms")
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}

// planHier reproduces the multi-GPU discussion of Sec. 6.2: a hierarchical Bine
// allreduce (intra-node reduce-scatter, inter-node Bine allreduce,
// intra-node allgather) against flat algorithms on a machine with four
// fully connected GPUs per node.
func planHier(c *compile) (*plan, error) {
	const gpusPerNode = 4
	counts := []int{16, 64, 256, 512}
	if c.Quick {
		counts = []int{16, 64}
	}
	sizes := c.sizes()
	params := defaultParams()
	type hierAlgo struct {
		name string
		run  func(c fabric.Comm, buf []int32) error
	}
	type hierSetup struct {
		topo  topology.Topology
		algos []hierAlgo
	}
	// Build each GPU count's topology and schedules at plan time (cheap);
	// every (count, algorithm) pair executes and scores as its own cell.
	setups := make([]hierSetup, len(counts))
	for ci, p := range counts {
		topo, err := topology.NewUpDown(topology.UpDownConfig{
			Name: "gpu-cluster", Groups: p / gpusPerNode, NodesPerGroup: gpusPerNode,
			NICBW: topology.GbpsToBytes(1600), Oversub: 8, // NVLink in, tapered IB out
		})
		if err != nil {
			return nil, err
		}
		bfly, err := core.NewButterfly(core.BflyBineDD, p)
		if err != nil {
			return nil, err
		}
		binom, err := core.NewButterfly(core.BflyBinomialDH, p)
		if err != nil {
			return nil, err
		}
		setups[ci] = hierSetup{topo: topo, algos: []hierAlgo{
			{"hier-bine", func(c fabric.Comm, buf []int32) error {
				return coll.HierarchicalAllreduce(c, gpusPerNode, core.BflyBineDD, buf, coll.OpSum)
			}},
			{"flat-bine-bw", func(c fabric.Comm, buf []int32) error {
				return coll.AllreduceRsAg(c, bfly, buf, coll.OpSum)
			}},
			{"ring", func(c fabric.Comm, buf []int32) error {
				return coll.RingAllreduce(c, buf, coll.OpSum)
			}},
			{"rabenseifner", func(c fabric.Comm, buf []int32) error {
				return coll.AllreduceRsAg(c, binom, buf, coll.OpSum)
			}},
		}}
	}
	algosPerCount := len(setups[0].algos)
	times := make([]map[int64]float64, len(counts)*algosPerCount)
	tasks := make([]task, len(times))
	for i := range times {
		tasks[i] = task{system: systemMisc, run: func(ctx context.Context) error {
			ci, ai := i/algosPerCount, i%algosPerCount
			p := counts[ci]
			a := setups[ci].algos[ai]
			n := p * gpusPerNode
			rs, err := replay{topo: setups[ci].topo, params: params, sizes: sizes}.evaluate(ctx, func() (*fabric.Trace, error) {
				return c.Engine.cachedNamedTrace(ctx, "hier-allreduce", a.name, fmt.Sprintf("p=%d/n=%d", p, n), p, func(c fabric.Comm) error {
					return a.run(c, make([]int32, n))
				})
			}, n, 0, netsim.Eval{Reduces: true, Overlap: 0.3})
			if err != nil {
				return err
			}
			out := make(map[int64]float64, len(sizes))
			for si, size := range sizes {
				out[size] = rs[si].Time
			}
			times[i] = out
			return nil
		}}
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Sec. 6.2 — hierarchical Bine allreduce on 4-GPU nodes (times in µs; best per cell marked *):")
		for ci, p := range counts {
			fmt.Fprintf(w, "  %d GPUs:\n", p)
			algTimes := times[ci*algosPerCount : (ci+1)*algosPerCount]
			fmt.Fprintf(w, "    %-14s", "")
			for _, size := range sizes {
				fmt.Fprintf(w, " %10s", SizeLabel(size))
			}
			fmt.Fprintln(w)
			for ai, a := range setups[ci].algos {
				fmt.Fprintf(w, "    %-14s", a.name)
				for _, size := range sizes {
					t := algTimes[ai][size]
					best := true
					for _, other := range algTimes {
						if other[size] < t {
							best = false
							break
						}
					}
					mark := " "
					if best {
						mark = "*"
					}
					fmt.Fprintf(w, " %9.1f%s", t*1e6, mark)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w, "  paper: hierarchical Bine beats flat MPI algorithms for >4 MiB and approaches NCCL")
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}

// planAppD illustrates Appendix D on a 4×4 torus: hop counts of the flat Bine
// tree vs the torus-optimized construction, and the DFS-postorder block
// permutation.
func planAppD(c *compile) (*plan, error) {
	tor := core.MustTorus(4, 4)
	topo, err := FugakuTopology([]int{4, 4})
	if err != nil {
		return nil, err
	}
	flatTree := core.MustTree(core.BineDH, tor.P(), 0)
	torusBcast, _ := coll.Find(coll.TorusRegistry(tor), coll.CBcast, "bine-bcast")
	torusRun, err := torusBcast.Make(tor.P(), 0)
	if err != nil {
		return nil, err
	}
	var flatTr, torusTr *fabric.Trace
	tasks := []task{
		{system: systemFugaku, run: func(ctx context.Context) error {
			tr, err := c.Engine.cachedNamedTrace(ctx, "tree-bcast", core.BineDH.String(), fmt.Sprintf("p=%d/n=1", tor.P()), tor.P(), func(c fabric.Comm) error {
				return coll.Bcast(c, flatTree, make([]int32, 1))
			})
			flatTr = tr
			return err
		}},
		{system: systemFugaku, run: func(ctx context.Context) error {
			tr, err := c.Engine.cachedNamedTrace(ctx, "torus-bcast", core.BineDH.String(), fmt.Sprintf("%v/n=1", tor.Dims), tor.P(), func(c fabric.Comm) error {
				return torusRun(c, 0, make([]int32, 1), nil, coll.OpSum)
			})
			torusTr = tr
			return err
		}},
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Appendix D — 4×4 torus: link hops of tree broadcasts (lower = better locality):")
		hops := func(tr *fabric.Trace) int {
			var route []int32
			total := 0
			for s := 0; s < tr.NumSteps(); s++ {
				for i, hi := tr.StepBounds(s); i < hi; i++ {
					route = topo.AppendRoute(route[:0], tr.From(i), tr.To(i))
					total += len(route) - 2
				}
			}
			return total
		}
		fmt.Fprintf(w, "  flat 1-D Bine tree:        %d hops\n", hops(flatTr))
		fmt.Fprintf(w, "  torus-optimized Bine tree: %d hops\n", hops(torusTr))
		perm, _, err := tor.DFSPostorder()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  DFS-postorder block permutation (Appendix D.2): %v\n", perm)
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}
