package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Appendix C fold: butterfly collectives on non-power-of-two rank counts.
// The classic technique the paper describes for butterflies: the last
// p − p' ranks (p' = 2^⌊log2 p⌋) fold their contribution onto the first
// p − p' ranks, the power-of-two collective runs among the first p' ranks,
// and the result unfolds back. This doubles the transferred volume for the
// folded ranks — exactly the overhead the paper notes — which is why the
// even-p duplicate-prune construction is preferred for trees.

// FoldButterfly builds the inner butterfly the folded collectives run among
// the first p' = 2^⌊log2 p⌋ of p ranks. Every rank shares it.
func FoldButterfly(kind core.ButterflyKind, p int) (*core.Butterfly, error) {
	if p < 1 {
		return nil, fmt.Errorf("coll: fold over %d ranks", p)
	}
	return core.NewButterfly(kind, 1<<uint(core.Log2Floor(p)))
}

// foldSizes returns p' = b.P and the number of folded ranks p − p', checking
// that b is the FoldButterfly of c's rank count.
func foldSizes(c fabric.Comm, b *core.Butterfly) (pp, extra int, err error) {
	p := c.Size()
	if b.P > p || 2*b.P <= p {
		return 0, 0, fmt.Errorf("coll: fold of %d ranks over a %d-rank butterfly", p, b.P)
	}
	return b.P, p - b.P, nil
}

// foldSteps counts the fold-in (step 0) and the unfold (step 1), both
// numbered before the inner phase that runs between them.
const foldSteps = 2

// firstRanks restricts c to its first k ranks, numbering unchanged.
func firstRanks(c fabric.Comm, k int) fabric.Comm { return &prefixComm{Comm: c, size: k} }

type prefixComm struct {
	fabric.Comm
	size int
}

func (c *prefixComm) Size() int { return c.size }

// FoldedAllreduce runs an allreduce over any rank count: extras fold in,
// the inner power-of-two Bine allreduce runs over b (a FoldButterfly), and
// results unfold.
func FoldedAllreduce(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	pp, extra, err := foldSizes(c, b)
	if err != nil {
		return err
	}
	if extra == 0 {
		return allreduceAuto(c, b, buf, op)
	}
	r := c.Rank()
	x := &ctx{c: c}
	if r >= pp {
		// Fold: contribute the whole vector to the partner, then wait for
		// the final result.
		x.send(r-pp, 0, 0, buf)
		x.recv(r-pp, 1, 0, buf)
		return x.err
	}
	if r < extra {
		tmp := make([]int32, len(buf))
		x.recv(r+pp, 0, 0, tmp)
		if x.err != nil {
			return x.err
		}
		op.Apply(buf, tmp)
	}
	if err := allreduceAuto(firstRanks(Offset(c, foldSteps), pp), b, buf, op); err != nil {
		return err
	}
	if r < extra {
		x.send(r+pp, 1, 0, buf)
	}
	return x.err
}

// allreduceAuto picks the bandwidth-optimal reduce-scatter+allgather when
// the vector divides evenly, falling back to recursive doubling.
func allreduceAuto(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	if len(buf) >= c.Size() && len(buf)%c.Size() == 0 {
		return AllreduceRsAg(c, b, buf, op)
	}
	return AllreduceRecDoubling(c, b, buf, op)
}

// FoldedReduceScatter runs a reduce-scatter over any rank count. The inner
// power-of-two phase reduce-scatters whole fold-group shares; a final
// scatter step distributes each share's blocks to the folded ranks.
func FoldedReduceScatter(c fabric.Comm, b *core.Butterfly, strat Strategy, buf, out []int32, op Op) error {
	p := c.Size()
	if len(buf)%p != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d blocks", len(buf), p)
	}
	pp, extra, err := foldSizes(c, b)
	if err != nil {
		return err
	}
	if extra == 0 {
		return ReduceScatter(c, b, strat, buf, out, op)
	}
	bs := len(buf) / p
	if len(out) != bs {
		return fmt.Errorf("coll: reduce-scatter out has %d elements, want %d", len(out), bs)
	}
	r := c.Rank()
	x := &ctx{c: c}
	w := buf
	if r >= pp {
		x.send(r-pp, 0, 0, buf)
		x.recv(r-pp, 1, 0, out)
		return x.err
	}
	if r < extra {
		w = append([]int32(nil), buf...)
		tmp := make([]int32, len(buf))
		x.recv(r+pp, 0, 0, tmp)
		if x.err != nil {
			return x.err
		}
		op.Apply(w, tmp)
	}
	// Inner phase: p' ranks, p' shares. Share i covers the original blocks
	// of inner rank i plus (for i < extra) those of folded rank i+p'.
	shareLen := 2 * bs
	share := make([]int32, shareLen)
	inner := firstRanks(Offset(c, foldSteps), pp)
	// Repack: inner share i = [block i, block i+p' (zero-padded when absent)].
	packed := make([]int32, pp*shareLen)
	for i := 0; i < pp; i++ {
		copy(packed[i*shareLen:], w[i*bs:(i+1)*bs])
		if i < extra {
			copy(packed[i*shareLen+bs:], w[(i+pp)*bs:(i+pp+1)*bs])
		}
	}
	if err := ReduceScatter(inner, b, strat, packed, share, op); err != nil {
		return err
	}
	copy(out, share[:bs])
	if r < extra {
		x.send(r+pp, 1, 0, share[bs:])
	}
	return x.err
}

// FoldedAllgather runs an allgather over any rank count: folded ranks seed
// their block through their partner, which contributes a doubled share to
// the inner power-of-two allgather and forwards the assembled vector back.
func FoldedAllgather(c fabric.Comm, b *core.Butterfly, strat Strategy, in, out []int32) error {
	p := c.Size()
	bs := len(in)
	if len(out) != p*bs {
		return fmt.Errorf("coll: allgather out has %d elements, want %d", len(out), p*bs)
	}
	pp, extra, err := foldSizes(c, b)
	if err != nil {
		return err
	}
	if extra == 0 {
		return Allgather(c, b, strat, in, out)
	}
	r := c.Rank()
	x := &ctx{c: c}
	if r >= pp {
		x.send(r-pp, 0, 0, in)
		x.recv(r-pp, 1, 0, out)
		return x.err
	}
	share := make([]int32, 2*bs)
	copy(share, in)
	if r < extra {
		x.recv(r+pp, 0, 0, share[bs:])
		if x.err != nil {
			return x.err
		}
	}
	inner := firstRanks(Offset(c, foldSteps), pp)
	packed := make([]int32, pp*2*bs)
	if err := Allgather(inner, b, strat, share, packed); err != nil {
		return err
	}
	// Unpack shares into rank order.
	for i := 0; i < pp; i++ {
		copy(out[i*bs:(i+1)*bs], packed[i*2*bs:])
		if i < extra {
			copy(out[(i+pp)*bs:(i+pp+1)*bs], packed[i*2*bs+bs:])
		}
	}
	if r < extra {
		x.send(r+pp, 1, 0, out)
	}
	return x.err
}
