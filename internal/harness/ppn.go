package harness

import (
	"context"
	"fmt"
	"io"

	"binetrees/internal/coll"
)

// planPPN reproduces the Sec. 6.1 study: the same collectives with one vs four
// processes per node on a LUMI-like 64-node job. With more processes per
// node each node injects more traffic, so the global-link relief Bine
// provides matters more — the paper saw the 1 MiB reduce-scatter gain grow
// from 59% to 84%.
func planPPN(c *compile) (*plan, error) {
	sys := LUMI()
	const nodes = 64
	sizes := c.sizes()
	// Every configuration shares one 64-node placement — placed alone, not the
	// sweeps' p = 64 — hence the same tapered topology shares.
	pl, err := c.placed(sys, []int{nodes})
	if err != nil {
		return nil, err
	}
	nodePlacement, topo := pl.nodes[nodes], pl.topos[nodes]
	// One cell per (collective, ppn, algorithm): record (or fetch from the
	// trace cache) the schedule at the cell's rank count and score every
	// size. The Bine candidate and the binomial baseline of each row are
	// independent cells.
	type ppnJob struct {
		collective coll.Collective
		ppn        int
		name       string
	}
	registry := coll.Registry()
	collectives := []coll.Collective{coll.CReduceScatter, coll.CAllreduce}
	var jobs []ppnJob
	for _, collective := range collectives {
		for _, ppn := range []int{1, 4} {
			var bineName, baseName string
			switch collective {
			case coll.CReduceScatter:
				bineName, baseName = "bine-send", "recursive-halving"
			default:
				bineName, baseName = "bine-bw", "rabenseifner"
			}
			for _, name := range []string{bineName, baseName} {
				jobs = append(jobs, ppnJob{collective: collective, ppn: ppn, name: name})
			}
		}
	}
	outs := make([][]float64, len(jobs))
	tasks := make([]task, len(jobs))
	for i := range jobs {
		tasks[i] = task{system: sys.Key, run: func(ctx context.Context) error {
			j := jobs[i]
			p := nodes * j.ppn
			placement := make([]int, p)
			for r := range placement {
				placement[r] = nodePlacement[r/j.ppn]
			}
			algo, ok := coll.Find(registry, j.collective, j.name)
			if !ok {
				return fmt.Errorf("%v/%s not registered", j.collective, j.name)
			}
			rs, err := replay{topo, sys.Params, placement, sizes}.evaluateAlgo(ctx, c.Engine, algo, p)
			if err != nil {
				return err
			}
			times := make([]float64, len(sizes))
			for si := range sizes {
				times[si] = rs[si].Time
			}
			outs[i] = times
			return nil
		}}
	}
	render := func(w io.Writer) error {
		fmt.Fprintln(w, "Sec. 6.1 — impact of processes per node (LUMI-like, 64 nodes):")
		fmt.Fprintln(w, "Bine gain over the best binomial baseline for reduce-scatter and allreduce:")
		fmt.Fprintf(w, "  %-20s", "")
		for _, size := range sizes {
			fmt.Fprintf(w, " %10s", SizeLabel(size))
		}
		fmt.Fprintln(w)
		for row := 0; row < len(jobs)/2; row++ {
			bine, base := outs[2*row], outs[2*row+1]
			j := jobs[2*row]
			fmt.Fprintf(w, "  %-15sppn=%d", j.collective, j.ppn)
			for si := range sizes {
				fmt.Fprintf(w, " %9.0f%%", 100*(base[si]/bine[si]-1))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "  paper: gains grow with processes per node (59% → 84% for the 1 MiB reduce-scatter)")
		return nil
	}
	return &plan{tasks: tasks, render: render}, nil
}
