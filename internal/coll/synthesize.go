package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Synthesizer is the capability a collective schedule exposes so its
// deterministic send pattern can be emitted without executing it on a
// fabric: Walk replays one rank's schedule body against a pattern-only
// endpoint (fabric.TraceBuilder's Comm), whose Sends are logged and whose
// Recvs complete immediately. Nearly every registered algorithm is
// data-independent — the (step, from, to, sub, elems) sequence a rank emits
// is a pure function of (p, root, n) — so walking the ranks one by one
// yields exactly the trace a concurrent recorded run would, without
// goroutines, mailboxes or payload traffic. Two schedules carry a Synth
// override that derives the same pattern from schedule math, for different
// reasons: Bruck's alltoall because its message lengths are negotiated at
// run time, so the zero-buffer walk cannot reproduce them; the Bine
// alltoall because its walk regroups every held item at every step, which
// costs far more than the p·log2(p) messages it emits. internal/synth
// drives the walk and merges the columns.
type Synthesizer interface {
	// Ranks returns the schedule's rank count.
	Ranks() int
	// Walk runs rank's schedule body against the pattern endpoint c (whose
	// Rank() is rank). It must emit the rank's sends in schedule order.
	Walk(rank int, c fabric.Comm) error
}

// Pattern returns a Synthesizer for the algorithm's schedule over p ranks
// with root root and n total vector elements. The per-rank runner is built
// once (Make caches tree/butterfly structures in its closure, exactly as a
// recording run would) and each Walk executes it on zero buffers sized by
// the collective's InOutLens convention — matching the recording path,
// where vectors are all-zero and only send lengths reach the trace. The
// buffers are shared by the schedule's ranks and re-zeroed per Walk, so one
// pattern must not be walked from several goroutines at once. An algorithm
// with a Synth override uses it instead of the generic walk.
func (a Algorithm) Pattern(p, root, n int) (Synthesizer, error) {
	if a.Synth != nil {
		return a.Synth(p, root, n)
	}
	run, err := a.Make(p, root)
	if err != nil {
		return nil, err
	}
	s := &pattern{run: run, p: p, root: root}
	inLen, outLen := a.Coll.InOutLens(p, n)
	s.in = make([]int32, inLen)
	if outLen > 0 {
		s.out = make([]int32, outLen)
	}
	return s, nil
}

type pattern struct {
	run     RunFunc
	p, root int
	in, out []int32
}

func (s *pattern) Ranks() int { return s.p }

func (s *pattern) Walk(rank int, c fabric.Comm) error {
	clear(s.in)
	clear(s.out)
	return s.run(c, s.root, s.in, s.out, OpSum)
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
	return &bruckPattern{p: p, n: n, moved: moved, zero: make([]int32, n+2*p)}, nil
}

type bruckPattern struct {
	p, n  int
	moved []int
	zero  []int32 // payload stand-in: only message lengths reach the trace
}

func (s *bruckPattern) Ranks() int { return s.p }

// Walk emits rank's sends exactly as BruckAlltoall does: per step, the item
// message — recorded even when empty — then the one-element count header
// (the runtime negotiation whose answer the pattern already knows).
func (s *bruckPattern) Walk(rank int, c fabric.Comm) error {
	p, n := s.p, s.n
	if n%p != 0 || n == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d blocks", n, p)
	}
	if p == 1 {
		return nil
	}
	bs := n / p
	var one [1]int32
	for step, k := 0, 1; k < p; step, k = step+1, k<<1 {
		to := (rank + k) % p
		if err := c.Send(to, step, 0, s.zero[:s.moved[step]*(bs+2)]); err != nil {
			return err
		}
		if err := c.Send(to, step, 1, one[:]); err != nil {
			return err
		}
	}
	return nil
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
	return &bineAlltoall{b: b, n: n, zero: make([]int32, p*(n/p+1)/2)}, nil
}

type bineAlltoall struct {
	b    *core.Butterfly
	n    int
	zero []int32 // payload stand-in: only message lengths reach the trace
}

func (s *bineAlltoall) Ranks() int { return s.b.P }

func (s *bineAlltoall) Walk(rank int, c fabric.Comm) error {
	if err := checkButterfly(c, s.b, s.n); err != nil {
		return err
	}
	for i := 0; i < s.b.S; i++ {
		if err := c.Send(s.b.Partner(rank, i), i, 0, s.zero); err != nil {
			return err
		}
	}
	return nil
}
