package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Strategy selects how butterfly collectives handle the non-contiguous
// block sets of Bine distance-doubling schedules (Sec. 4.3.1).
type Strategy int

const (
	// BlockByBlock transmits every block as an independent message. More
	// per-message overhead, but maximal communication/computation overlap.
	BlockByBlock Strategy = iota
	// Permute first permutes the vector (block b to position
	// reverse(ν(b))) so every transmission is one contiguous range.
	Permute
	// Send transmits contiguous ranges as if the permutation had been
	// applied, then fixes ownership with one extra exchange (or lets a
	// paired collective undo it for free).
	Send
	// TwoTransmissions switches to the distance-halving butterfly, whose
	// block sets are circularly contiguous and need at most two messages.
	TwoTransmissions
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case BlockByBlock:
		return "block-by-block"
	case Permute:
		return "permute"
	case Send:
		return "send"
	case TwoTransmissions:
		return "two-transmissions"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all four variants of Sec. 4.3.1.
var Strategies = []Strategy{BlockByBlock, Permute, Send, TwoTransmissions}

// ReduceScatter reduces buf (p·bs elements) across all ranks and leaves the
// fully reduced block c.Rank() in out (bs elements). buf is not modified.
//
// The butterfly must match the strategy: TwoTransmissions requires a
// distance-halving Bine butterfly, the other strategies a distance-doubling
// one (or a binomial butterfly, for which every strategy degenerates to the
// classic contiguous recursive halving).
func ReduceScatter(c fabric.Comm, b *core.Butterfly, strat Strategy, buf, out []int32, op Op) error {
	if err := checkButterfly(c, b, len(buf)); err != nil {
		return err
	}
	bs := len(buf) / b.P
	if len(out) != bs {
		return fmt.Errorf("coll: reduce-scatter out has %d elements, want %d", len(out), bs)
	}
	if b.P == 1 {
		copy(out, buf)
		return nil
	}
	if strat < BlockByBlock || strat > TwoTransmissions {
		return fmt.Errorf("coll: unknown strategy %v", strat)
	}
	// The working vector, in the plan's index space: by permuted position
	// for Permute, by block otherwise (Send sends positions as if permuted
	// and fixes ownership in its last step).
	w := make([]int32, len(buf))
	if strat == Permute {
		for blk := 0; blk < b.P; blk++ {
			copy(w[b.PermutedPosition(blk)*bs:], buf[blk*bs:(blk+1)*bs])
		}
	} else {
		copy(w, buf)
	}
	pl, r := rsPlan(b, strat, len(buf)), c.Rank()
	x := &ctx{c: c}
	if err := pl.run(x, r, w, 0, b.S, &op); err != nil {
		return err
	}
	// Send's ownership step delivers each rank its own block's reduction.
	if err := pl.run(x, r, w, b.S, pl.steps, nil); err != nil {
		return err
	}
	own := r
	if strat == Permute {
		own = b.PermutedPosition(r) // position reverse(ν(r)) holds block r
	}
	copy(out, w[own*bs:(own+1)*bs])
	return nil
}

// Allgather distributes each rank's in block (bs elements) to every rank:
// out (p·bs elements) ends with rank i's block at position i, on all ranks.
// The schedule is the exact reverse of the matching ReduceScatter, as in
// Sec. 4.3 ("for the allgather, it is enough to reverse the reduce-scatter
// communication pattern").
func Allgather(c fabric.Comm, b *core.Butterfly, strat Strategy, in, out []int32) error {
	if err := checkButterfly(c, b, len(out)); err != nil {
		return err
	}
	bs := len(out) / b.P
	if len(in) != bs {
		return fmt.Errorf("coll: allgather in has %d elements, want %d", len(in), bs)
	}
	if b.P == 1 {
		copy(out, in)
		return nil
	}
	if strat < BlockByBlock || strat > TwoTransmissions {
		return fmt.Errorf("coll: unknown strategy %v", strat)
	}
	// out is the working vector, in the plan's index space (see
	// ReduceScatter). Permute seeds position reverse(ν(r)) with block r; the
	// others seed block r, which Send's pre-exchange (Sec. 4.3.1), run before
	// the phase though numbered after it, moves to the rank whose position
	// is r, so no terminal permutation is needed.
	pl, r := agPlan(b, strat, len(out)), c.Rank()
	seed := r
	if strat == Permute {
		seed = b.PermutedPosition(r)
	}
	copy(out[seed*bs:], in)
	x := &ctx{c: c}
	if err := pl.run(x, r, out, b.S, pl.steps, nil); err != nil {
		return err
	}
	if err := pl.run(x, r, out, 0, b.S, nil); err != nil {
		return err
	}
	if strat == Permute {
		// Terminal permutation: position reverse(ν(b)) holds block b.
		tmp := append([]int32(nil), out...)
		for blk := 0; blk < b.P; blk++ {
			pos := b.PermutedPosition(blk)
			copy(out[blk*bs:], tmp[pos*bs:(pos+1)*bs])
		}
	}
	return nil
}

// AllreduceRecDoubling is the small-vector allreduce: at every step the full
// vector is exchanged with the butterfly partner and reduced (Sec. 4.4).
func AllreduceRecDoubling(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	if c.Size() != b.P {
		return fmt.Errorf("coll: butterfly over %d ranks on a %d-rank communicator", b.P, c.Size())
	}
	return recDoublingPlan(b, len(buf)).run(&ctx{c: c}, c.Rank(), buf, 0, b.S, &op)
}

// AllreduceRsAg is the large-vector allreduce: a reduce-scatter immediately
// followed by the mirrored allgather (Sec. 4.4). For Bine butterflies both
// phases run in permuted position space with no data movement at either
// end — every transmission is one contiguous range, which is the paper's
// key advantage over Swing (Sec. 5.2.2). The vector length must be a
// multiple of the rank count.
func AllreduceRsAg(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	return allreduceRsAg(c, b, Permute, buf, op)
}

// allreduceRsAg runs rsagPlan in place on buf: the reduce-scatter folds
// every position, or block, into the rank that keeps it, and the allgather
// that reverses it spreads the reductions back. With the contiguous
// strategies both phases work on raw positions ("send" mode without the
// ownership fix-up: position q accumulates the full reduction of whatever
// block sits at index q, namely block q), and the growing ranges restore
// every position, so buf ends fully reduced and in its original order.
func allreduceRsAg(c fabric.Comm, b *core.Butterfly, strat Strategy, buf []int32, op Op) error {
	if err := checkButterfly(c, b, len(buf)); err != nil {
		return err
	}
	if b.P == 1 {
		return nil
	}
	pl, x := rsagPlan(b, strat, len(buf)), &ctx{c: c}
	if err := pl.run(x, c.Rank(), buf, 0, b.S, &op); err != nil {
		return err
	}
	return pl.run(x, c.Rank(), buf, b.S, pl.steps, nil)
}

func checkButterfly(c fabric.Comm, b *core.Butterfly, n int) error {
	if c.Size() != b.P {
		return fmt.Errorf("coll: butterfly over %d ranks on a %d-rank communicator", b.P, c.Size())
	}
	if err := checkBlocks(n, b.P); err != nil {
		return err
	}
	return nil
}

// splitRanges halves rank r's owned position range [lo, hi) at step i: r
// keeps the half holding its own permuted position and sends the other,
// which must hold its step-i partner's — the pairing that makes both sides
// of the exchange agree on the range moved (Fig. 8).
func splitRanges(b *core.Butterfly, r, i, lo, hi int) (slo, shi, klo, khi int, err error) {
	mid := (lo + hi) / 2
	slo, shi, klo, khi = mid, hi, lo, mid
	if b.PermutedPosition(r) >= mid {
		slo, shi, klo, khi = lo, mid, mid, hi
	}
	q := b.Partner(r, i)
	if pos := b.PermutedPosition(q); pos < slo || pos >= shi {
		return 0, 0, 0, 0, fmt.Errorf("coll: %v rank %d step %d: partner %d at position %d, outside the sent range [%d,%d)",
			b.Kind, r, i, q, pos, slo, shi)
	}
	return slo, shi, klo, khi, nil
}

// keepRange returns the position range owned after step i (i = −1 means the
// whole vector): the aligned range of p/2^(i+1) positions holding r's own.
func keepRange(b *core.Butterfly, r, i int) (lo, hi int) {
	n := b.P >> uint(i+1)
	lo = b.PermutedPosition(r) &^ (n - 1)
	return lo, lo + n
}
