package coll

import (
	"fmt"

	"binetrees/internal/fabric"
)

// Synthesizer emits a collective schedule's trace from schedule math,
// without executing the schedule on a fabric. Every registered algorithm is
// data-independent — the (step, from, to, sub, elems) sequence a rank emits
// is a pure function of (p, root, n) — so its trace is too, and a
// Synthesizer returns exactly the trace a concurrent recorded run would.
//
// Two kinds exist. The butterfly reduce-scatters, allgathers and allreduces
// and the all-pairs schedules (ring, pairwise, sparbit, Bruck, the Bine
// alltoall) are plans (Algorithm.Synth): the same per-(rank, step) partners
// and message extents their executors loop over, fed step by step into a
// fabric.StepBuilder, with no vectors, shards or merge. Everything else —
// trees, the tree + butterfly composites, fold, linear and pipelined
// broadcasts and the TorusRegistry collectives — walks its Make body
// against a fabric.TraceBuilder (see Pattern and Walk).
type Synthesizer interface {
	// Synthesize returns the schedule's trace.
	Synthesize() (*fabric.Trace, error)
}

// synthFunc adapts a function to Synthesizer.
type synthFunc func() (*fabric.Trace, error)

func (f synthFunc) Synthesize() (*fabric.Trace, error) { return f() }

// Walk returns the Synthesizer that builds a p-rank trace by running body
// once per rank, in rank order, against a fabric.TraceBuilder's pattern
// endpoints, whose Sends are logged and whose Recvs complete at once. It
// must not run from several goroutines at once.
func Walk(p int, body func(c fabric.Comm) error) Synthesizer {
	return synthFunc(func() (*fabric.Trace, error) {
		b := fabric.NewTraceBuilder(p)
		for rank := 0; rank < p; rank++ {
			if err := body(b.Comm(rank)); err != nil {
				return nil, fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		return b.Trace(), nil
	})
}

// opNone is the walk's reduction operator: it folds nothing, because no
// trace reads the data a walk would reduce, and a plan receives under it
// straight into the vector instead of a staging buffer.
var opNone = Op{Name: "none"}

// Pattern returns a Synthesizer for the algorithm's schedule over p ranks
// with root root and n total vector elements: the algorithm's Synth closed
// form if it has one, otherwise a Walk of its Make body. The walk builds the
// per-rank runner once (Make caches tree/butterfly structures in its
// closure, exactly as a recording run would) and runs every rank on one
// pair of buffers sized by the collective's InOutLens convention, reducing
// with opNone. The buffers stay zero, as a recording's vectors are: a walked
// schedule only copies and reduces what its buffers hold, and a pattern Recv
// leaves its buffer alone. Only send lengths reach the trace. A walking
// Synthesizer must not run from several goroutines at once.
func (a Algorithm) Pattern(p, root, n int) (Synthesizer, error) {
	if a.Synth != nil {
		return a.Synth(p, root, n)
	}
	run, err := a.Make(p, root)
	if err != nil {
		return nil, err
	}
	inLen, outLen := a.Coll.InOutLens(p, n)
	in := make([]int32, inLen)
	var out []int32
	if outLen > 0 {
		out = make([]int32, outLen)
	}
	return Walk(p, func(c fabric.Comm) error { return run(c, root, in, out, opNone) }), nil
}
