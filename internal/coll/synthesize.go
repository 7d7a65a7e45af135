package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Synthesizer emits a collective schedule's trace from schedule math,
// without executing the schedule on a fabric. Every registered algorithm is
// data-independent — the (step, from, to, sub, elems) sequence a rank emits
// is a pure function of (p, root, n) — so its trace is too, and a
// Synthesizer returns exactly the trace a concurrent recorded run would.
//
// Most algorithms synthesize by walking their Make body (see Pattern).
// Three schedule families carry a closed form instead (Algorithm.Synth), for
// different reasons: Bruck's alltoall because its message lengths are
// negotiated at run time, so a walk on zero buffers cannot reproduce them;
// the Bine alltoall because its walk regroups every held item at every step,
// which costs far more than the p·log2(p) messages it emits; and the ring
// reduce-scatter, allgather and allreduce because their walk emits the one
// step body the trace stores at each of the p−1 or 2(p−1) steps.
type Synthesizer interface {
	// Synthesize returns the schedule's trace.
	Synthesize() (*fabric.Trace, error)
}

// synthFunc adapts a function to Synthesizer.
type synthFunc func() (*fabric.Trace, error)

func (f synthFunc) Synthesize() (*fabric.Trace, error) { return f() }

// walk builds a p-rank trace by running body once per rank, in rank order,
// against a fabric.TraceBuilder's pattern endpoints, whose Sends are logged
// and whose Recvs complete at once.
func walk(p int, body func(c fabric.Comm) error) (*fabric.Trace, error) {
	b := fabric.NewTraceBuilder(p)
	for rank := 0; rank < p; rank++ {
		if err := body(b.Comm(rank)); err != nil {
			return nil, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return b.Trace(), nil
}

// opNone is the walk's reduction operator: it folds nothing, because no
// trace reads the data a walk would reduce.
var opNone = Op{Name: "none", apply: func(_, _ []int32) {}}

// Pattern returns a Synthesizer for the algorithm's schedule over p ranks
// with root root and n total vector elements: the algorithm's Synth closed
// form if it has one, otherwise a walk of its Make body. The walk builds the
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
	return synthFunc(func() (*fabric.Trace, error) {
		return walk(p, func(c fabric.Comm) error { return run(c, root, in, out, opNone) })
	}), nil
}

// bruckAlltoallPattern synthesizes BruckAlltoall's send pattern. Bruck is
// the registry's one data-dependent schedule: each step's message length is
// the count of held items whose remaining ring displacement has the step
// bit set, and a rank only learns its incoming count from a header message
// at runtime — so the generic zero-buffer walk cannot reproduce it. The
// counts are still pure schedule math: an item forwarded at step bit k has
// already shed exactly the lower set bits of its origin→destination
// displacement, so it moves iff the displacement itself has bit k set, and
// every rank holds one item per displacement in [0, p) at every step.
//
// Each rank emits its sends exactly as BruckAlltoall does: per step, the
// item message — recorded even when empty — then the one-element count
// header (the runtime negotiation whose answer the pattern already knows).
func bruckAlltoallPattern(p, _, n int) (Synthesizer, error) {
	var moved []int // moved[step] = items every rank forwards that step
	for k := 1; k < p; k <<= 1 {
		m := 0
		for disp := 0; disp < p; disp++ {
			if (disp/k)%2 == 1 {
				m++
			}
		}
		moved = append(moved, m)
	}
	zero := make([]int32, n+2*p) // payload stand-in: only message lengths reach the trace
	return synthFunc(func() (*fabric.Trace, error) {
		return walk(p, func(c fabric.Comm) error {
			if err := checkBlocks(n, p); err != nil {
				return err
			}
			if p == 1 {
				return nil
			}
			bs := n / p
			var one [1]int32
			for step, k := 0, 1; k < p; step, k = step+1, k<<1 {
				to := (c.Rank() + k) % p
				if err := c.Send(to, step, 0, zero[:moved[step]*(bs+2)]); err != nil {
					return err
				}
				if err := c.Send(to, step, 1, one[:]); err != nil {
					return err
				}
			}
			return nil
		})
	}), nil
}

// bineAlltoallPattern synthesizes BineAlltoall's send pattern in closed
// form: at step i a rank sends the items of its p/2^(i+1) send blocks, 2^i
// items of bs+1 elements each — one message of p·(bs+1)/2 elements to
// Partner(r, i). BineAlltoall itself stays the recording oracle.
func bineAlltoallPattern(p, _, n int) (Synthesizer, error) {
	b, err := core.NewButterfly(core.BflyBineDD, p)
	if err != nil {
		return nil, err
	}
	zero := make([]int32, p*(n/p+1)/2) // payload stand-in: only message lengths reach the trace
	return synthFunc(func() (*fabric.Trace, error) {
		return walk(p, func(c fabric.Comm) error {
			if err := checkButterfly(c, b, n); err != nil {
				return err
			}
			for i := 0; i < b.S; i++ {
				if err := c.Send(b.Partner(c.Rank(), i), i, 0, zero); err != nil {
					return err
				}
			}
			return nil
		})
	}), nil
}
