package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// extent is one message of a planned step: n elements of the schedule's
// vector, starting at element off and wrapping past its end. Both sides of
// a message read the same extent: the sender sends those elements of its
// vector, and a receiver that keeps the vector in the same index space
// writes or folds them into the same elements of its own.
type extent struct{ off, n int }

// plan is a data-independent schedule's communication, step by step: the
// one place its partners and message extents are defined. The executor
// loops over it and moves and reduces data (run, or a collective's own loop
// for the alltoalls, whose messages are item lists); Synthesize feeds it,
// step by step, into a fabric.StepBuilder, so synthesis needs neither
// vectors nor a walk of the executor. A plan holds scratch space and is not
// safe for concurrent use; each executor call builds its own.
type plan struct {
	p, steps int
	// at appends rank r's step-s messages to dst, in sub order, and returns
	// the rank they go to and the rank r receives from at step s; both are
	// −1 at a step where r neither sends nor receives.
	at func(dst []extent, r, s int) (to, from int, msgs []extent, err error)
	// size returns the number of messages step s carries over all ranks and
	// the step whose body it is: s itself, or an earlier step it repeats
	// exactly, which synthesis then files under that step's class unbuilt.
	size func(s int) (msgs, same int)
}

// Synthesize returns the plan's trace.
func (pl *plan) Synthesize() (*fabric.Trace, error) {
	records := 0
	for s := range pl.steps {
		if m, same := pl.size(s); same == s {
			records += m
		}
	}
	b := fabric.NewStepBuilder(pl.p, pl.steps, records)
	var msgs []extent
	for s := range pl.steps {
		if _, same := pl.size(s); same != s {
			b.Repeat(same)
			continue
		}
		for r := range pl.p {
			to, _, m, err := pl.at(msgs[:0], r, s)
			msgs = m
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", r, err)
			}
			for sub, e := range msgs {
				if err := b.Send(r, to, sub, e.n); err != nil {
					return nil, fmt.Errorf("rank %d: %w", r, err)
				}
			}
		}
		b.EndStep()
	}
	return b.Trace()
}

// run executes steps [lo, hi) of the plan as rank r over its vector w: at
// each step r sends its extents of w and receives its source's extents into
// the same elements of w, folding them in with op, or overwriting them when
// op is nil or opNone. Step tags are the plan's step numbers.
func (pl *plan) run(x *ctx, r int, w []int32, lo, hi int, op *Op) error {
	var mine, theirs []extent
	var stage []int32
	for s := lo; s < hi; s++ {
		to, from, m, err := pl.at(mine[:0], r, s)
		if mine = m; err != nil {
			return err
		}
		for sub, e := range mine {
			head, tail := spans(w, e)
			if len(tail) > 0 {
				stage = append(append(stage[:0], head...), tail...)
				head = stage
			}
			x.send(to, s, sub, head)
		}
		if from < 0 {
			continue
		}
		if _, _, theirs, err = pl.at(theirs[:0], from, s); err != nil {
			return err
		}
		for sub, e := range theirs {
			head, tail := spans(w, e)
			if (op == nil || op.apply == nil) && len(tail) == 0 {
				x.recv(from, s, sub, head)
				continue
			}
			if cap(stage) < e.n {
				stage = make([]int32, e.n)
			}
			stage = stage[:e.n]
			x.recv(from, s, sub, stage)
			if x.err != nil {
				return x.err
			}
			if op == nil {
				copy(tail, stage[copy(head, stage):])
			} else {
				op.Apply(head, stage[:len(head)])
				op.Apply(tail, stage[len(head):])
			}
		}
		if x.err != nil {
			return x.err
		}
	}
	return x.err
}

// spans returns the elements of w an extent covers: from its start up to the
// end of w, and the wrapped rest from index 0, empty when it does not wrap.
func spans(w []int32, e extent) (head, tail []int32) {
	head = w[e.off:]
	if len(head) >= e.n {
		return head[:e.n], w[:0]
	}
	return head, w[:e.n-len(head)]
}

// then returns the plan that runs a's steps and then b's, renumbered after
// them. With mirror set, b's step i sends exactly what a's step
// a.steps−1−i does — an allgather reversing its reduce-scatter — so
// synthesis files it under that step's class without building it.
func (a *plan) then(b *plan, mirror bool) *plan {
	return &plan{
		p: a.p, steps: a.steps + b.steps,
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			if s < a.steps {
				return a.at(dst, r, s)
			}
			return b.at(dst, r, s-a.steps)
		},
		size: func(s int) (int, int) {
			if s < a.steps {
				return a.size(s)
			}
			m, same := b.size(s - a.steps)
			if mirror {
				return m, 2*a.steps - 1 - s
			}
			return m, same + a.steps
		},
	}
}

// halving is the reduce-scatter phase of butterfly b over an n-element
// vector: S steps, at each of which a rank sends its partner the half of
// what it still owns that the partner keeps. The contiguous strategies
// (Permute, Send) index the vector by permuted position and send one range;
// BlockByBlock indexes it by block and sends each block on its own;
// TwoTransmissions sends its circular block runs.
func halving(b *core.Butterfly, strat Strategy, n int) *plan {
	bs := n / b.P
	return &plan{
		p: b.P, steps: b.S,
		at:   bflyStep(b, strat, bs, func(r, s int) (int, int) { return r, s }),
		size: func(s int) (int, int) { return b.P * bflyMsgs(strat, s, b.P), s },
	}
}

// doubling is the allgather phase that reverses halving: at step i each
// rank sends its step-(S−1−i) partner what it owns so far, which is exactly
// that partner's send set at halving's step S−1−i.
func doubling(b *core.Butterfly, strat Strategy, n int) *plan {
	return &plan{
		p: b.P, steps: b.S,
		at: bflyStep(b, strat, n/b.P, func(r, s int) (int, int) {
			j := b.S - 1 - s
			return b.Partner(r, j), j
		}),
		size: func(s int) (int, int) { return b.P * bflyMsgs(strat, b.S-1-s, b.P), s },
	}
}

// bflyStep returns the step function of a butterfly phase in which rank r,
// at step s, sends owner's halving send set of step j — (owner, j) =
// whose(r, s) — to its own step-j partner, and receives from that partner.
func bflyStep(b *core.Butterfly, strat Strategy, bs int, whose func(r, s int) (int, int)) func([]extent, int, int) (int, int, []extent, error) {
	var blks []int
	var runs []core.CircRange
	return func(dst []extent, r, s int) (int, int, []extent, error) {
		owner, j := whose(r, s)
		q := b.Partner(r, j)
		switch strat {
		case BlockByBlock:
			blks = b.AppendSendBlocks(blks[:0], owner, j)
			for _, blk := range blks {
				dst = append(dst, extent{blk * bs, bs})
			}
		case TwoTransmissions:
			runs = b.SendRuns(runs[:0], owner, j)
			for _, run := range runs {
				dst = append(dst, extent{run.Start * bs, run.Len * bs})
			}
		default:
			lo, hi := keepRange(b, owner, j-1)
			slo, shi, _, _, err := splitRanges(b, owner, j, lo, hi)
			if err != nil {
				return 0, 0, nil, err
			}
			dst = append(dst, extent{slo * bs, (shi - slo) * bs})
		}
		return q, q, dst, nil
	}
}

// bflyMsgs is the number of messages one rank sends at halving step j: one
// per block of the p/2^(j+1) sent, or one range or circular run. A
// distance-halving Bine send set, the registry's only two-transmission
// one, forms exactly one run; the builder grows its columns for a kind
// whose sets form more.
func bflyMsgs(strat Strategy, j, p int) int {
	if strat == BlockByBlock {
		return p >> (j + 1)
	}
	return 1
}

// ownership is the Send reduce-scatter's last step (Sec. 4.3.1): the rank
// whose surviving position q is not its own rank sends it to rank q, so
// every rank ends holding its own block. pre is the Send allgather's
// pre-exchange, the same step reversed: rank r sends its block to the rank
// whose position is r, seeding every position with its own block.
func ownership(b *core.Butterfly, n int, pre bool) *plan {
	bs := n / b.P
	moved := 0
	for r := range b.P {
		if b.PermutedPosition(r) != r {
			moved++
		}
	}
	return &plan{
		p: b.P, steps: 1,
		at: func(dst []extent, r, _ int) (int, int, []extent, error) {
			pos, inv := b.PermutedPosition(r), b.PermutedInverse(r)
			if pos == r {
				return -1, -1, dst, nil
			}
			if pre {
				return inv, pos, append(dst, extent{r * bs, bs}), nil
			}
			return pos, inv, append(dst, extent{pos * bs, bs}), nil
		},
		size: func(int) (int, int) { return moved, 0 },
	}
}

// rsPlan is ReduceScatter's plan over b on an n-element vector: halving,
// then for Send the ownership step.
func rsPlan(b *core.Butterfly, strat Strategy, n int) *plan {
	pl := halving(b, strat, n)
	if strat == Send {
		pl = pl.then(ownership(b, n, false), false)
	}
	return pl
}

// agPlan is Allgather's plan over b on an n-element vector: doubling, then
// for Send the pre-exchange, numbered after the phase though it runs first.
func agPlan(b *core.Butterfly, strat Strategy, n int) *plan {
	pl := doubling(b, strat, n)
	if strat == Send {
		pl = pl.then(ownership(b, n, true), false)
	}
	return pl
}

// rsagPlan is the plan of a reduce-scatter over b followed by the allgather
// that reverses it, in one index space: AllreduceRsAg's (contiguous ranges)
// and the Swing allreduce's (block by block).
func rsagPlan(b *core.Butterfly, strat Strategy, n int) *plan {
	return halving(b, strat, n).then(doubling(b, strat, n), true)
}

// recDoublingPlan is AllreduceRecDoubling's plan: at every step the whole
// n-element vector goes to the butterfly partner.
func recDoublingPlan(b *core.Butterfly, n int) *plan {
	return &plan{
		p: b.P, steps: b.S,
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			q := b.Partner(r, s)
			return q, q, append(dst, extent{0, n}), nil
		},
		size: func(s int) (int, int) { return b.P, s },
	}
}

// AllreduceRsAgPlan returns the plan AllreduceRsAg runs over b on an
// n-element vector, as a Synthesizer of its trace.
func AllreduceRsAgPlan(b *core.Butterfly, n int) (Synthesizer, error) {
	if err := checkBlocks(n, b.P); err != nil {
		return nil, err
	}
	return rsagPlan(b, Permute, n), nil
}

// planned adapts a plan constructor to Algorithm.Synth. mk validates n as
// the algorithm's executor does and returns the plan that executor runs.
func planned(mk func(p, n int) (*plan, error)) func(p, root, n int) (Synthesizer, error) {
	return func(p, _, n int) (Synthesizer, error) {
		pl, err := mk(p, n)
		if err != nil {
			return nil, err
		}
		return pl, nil
	}
}

// ringPlan is the ring schedules' plan over p ranks and n = p·bs elements:
// one round of p−1 steps per lag, in order. At step t of a round with lag l
// rank r sends block r−t−l to r+1 and receives from r−1 the block one
// lower: the reduce-scatter's rounds lag 1, the allgather's 0. Every step
// sends one block from each rank to its successor, so every step repeats
// step 0.
func ringPlan(p, n int, lags ...int) *plan {
	bs := n / p
	return &plan{
		p: p, steps: len(lags) * (p - 1),
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			blk := mod(r-s%(p-1)-lags[s/(p-1)], p)
			return (r + 1) % p, mod(r-1, p), append(dst, extent{blk * bs, bs}), nil
		},
		size: func(int) (int, int) { return p, 0 },
	}
}

// pairwisePlan is PairwiseAlltoall's plan: at step t−1 rank r sends its
// block for r+t to r+t and receives from r−t, p−1 steps of n/p elements.
func pairwisePlan(p, n int) *plan {
	bs := n / p
	return &plan{
		p: p, steps: p - 1,
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			to := (r + s + 1) % p
			return to, mod(r-s-1, p), append(dst, extent{to * bs, bs}), nil
		},
		size: func(s int) (int, int) { return p, s },
	}
}

// sparbitPlan is SparbitAllgather's plan over p = 2^S ranks: at step i rank
// r sends each block it holds — those equal to r outside the top i bits, in
// ascending order — as its own message to r with bit S−1−i flipped, which
// sends back the mirrored set.
func sparbitPlan(p, n int) (*plan, error) {
	s, ok := core.Log2(p)
	if !ok {
		return nil, fmt.Errorf("coll: sparbit requires power-of-two ranks, got %d", p)
	}
	bs := n / p
	return &plan{
		p: p, steps: s,
		at: func(dst []extent, r, i int) (int, int, []extent, error) {
			q := r ^ (p >> (i + 1))
			held := (p - 1) &^ (p>>i - 1) // the top i bits
			for x := 0; ; {
				dst = append(dst, extent{(r&^held | x) * bs, bs})
				if x = (x - held) & held; x == 0 {
					return q, q, dst, nil
				}
			}
		},
		size: func(i int) (int, int) { return p << i, i },
	}, nil
}

// bruckAllgatherPlan is BruckAllgather's plan: at step k rank r sends the
// min(2^k, p − 2^k) blocks it holds, the circular run starting at block r,
// to r − 2^k, and receives the run starting at r + 2^k from r + 2^k.
func bruckAllgatherPlan(p, n int) *plan {
	bs := n / p
	return &plan{
		p: p, steps: core.Log2Ceil(p),
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			k := 1 << s
			return mod(r-k, p), (r + k) % p, append(dst, extent{r * bs, min(k, p-k) * bs}), nil
		},
		size: func(s int) (int, int) { return p, s },
	}
}

// bineAlltoallPlan is BineAlltoall's plan: at step i every rank sends its
// partner one message of the items of its p/2^(i+1) send blocks, 2^i items
// of bs+1 elements (header and payload) each. The message is assembled from
// items, so its extent gives only the length.
func bineAlltoallPlan(b *core.Butterfly, n int) *plan {
	items := b.P / 2 * (n/b.P + 1)
	return &plan{
		p: b.P, steps: b.S,
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			q := b.Partner(r, s)
			return q, q, append(dst, extent{0, items}), nil
		},
		size: func(s int) (int, int) { return b.P, s },
	}
}

// bruckAlltoallPlan is BruckAlltoall's plan: at step k rank r sends r + 2^k
// the items whose remaining ring displacement has bit k set, bs+2 elements
// each (origin, destination, payload), then a one-element count header. An
// item forwarded at step bit k has shed exactly the lower set bits of its
// origin→destination displacement, so it moves iff the displacement itself
// has bit k set, and every rank holds one item per displacement in [0, p):
// the count is the same on every rank, and the plan knows it. The item
// message's extent gives only its length.
func bruckAlltoallPlan(p, n int) *plan {
	bs := n / p
	return &plan{
		p: p, steps: core.Log2Ceil(p),
		at: func(dst []extent, r, s int) (int, int, []extent, error) {
			k := 1 << s
			moved := p/(2*k)*k + max(0, p%(2*k)-k) // displacements in [0, p) with bit s set
			return (r + k) % p, mod(r-k, p), append(dst, extent{0, moved * (bs + 2)}, extent{0, 1}), nil
		},
		size: func(s int) (int, int) { return 2 * p, s },
	}
}
