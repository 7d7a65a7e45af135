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
	switch strat {
	case BlockByBlock:
		return rsBlockByBlock(c, b, buf, out, op)
	case TwoTransmissions:
		return rsRuns(c, b, buf, out, op)
	case Permute, Send:
		return rsContig(c, b, strat, buf, out, op)
	}
	return fmt.Errorf("coll: unknown strategy %v", strat)
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
	switch strat {
	case BlockByBlock:
		return agBlockByBlock(c, b, in, out)
	case TwoTransmissions:
		return agRuns(c, b, in, out)
	case Permute, Send:
		return agContig(c, b, strat, in, out)
	}
	return fmt.Errorf("coll: unknown strategy %v", strat)
}

// AllreduceRecDoubling is the small-vector allreduce: at every step the full
// vector is exchanged with the butterfly partner and reduced (Sec. 4.4).
func AllreduceRecDoubling(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	if c.Size() != b.P {
		return fmt.Errorf("coll: butterfly over %d ranks on a %d-rank communicator", b.P, c.Size())
	}
	x := &ctx{c: c}
	r := c.Rank()
	tmp := make([]int32, len(buf))
	for i := 0; i < b.S; i++ {
		x.exchange(b.Partner(r, i), i, 0, buf, tmp)
		if x.err != nil {
			return x.err
		}
		op.Apply(buf, tmp)
	}
	return nil
}

// AllreduceRsAg is the large-vector allreduce: a reduce-scatter immediately
// followed by the mirrored allgather (Sec. 4.4). For Bine butterflies both
// phases run in permuted position space with no data movement at either
// end — every transmission is one contiguous range, which is the paper's
// key advantage over Swing (Sec. 5.2.2). The vector length must be a
// multiple of the rank count.
func AllreduceRsAg(c fabric.Comm, b *core.Butterfly, buf []int32, op Op) error {
	if err := checkButterfly(c, b, len(buf)); err != nil {
		return err
	}
	if b.P == 1 {
		return nil
	}
	// Phase 1: reduce-scatter over raw positions ("send" mode without the
	// ownership fix-up: position q accumulates the full reduction of
	// whatever block sits at index q, namely block q).
	lo, hi, err := rsContigPhase(&ctx{c: c}, b, c.Rank(), buf, op)
	if err != nil {
		return err
	}
	// Phase 2: allgather by running the same schedule backwards; the
	// growing ranges restore every position, so buf ends fully reduced and
	// in its original order on every rank.
	return agContigPhase(&ctx{c: Offset(c, b.S)}, b, c.Rank(), buf, lo, hi)
}

// rsContigPhase runs a contiguous-range reduce-scatter over seg (p·bs
// elements, in raw position space) and returns the owned position range
// [lo, hi) with hi−lo == 1. Used by rsContig, AllreduceRsAg and the
// per-dimension torus collectives.
func rsContigPhase(x *ctx, b *core.Butterfly, r int, seg []int32, op Op) (lo, hi int, err error) {
	bs := len(seg) / b.P
	lo, hi = 0, b.P
	tmp := make([]int32, len(seg)/2)
	for i := 0; i < b.S; i++ {
		slo, shi, klo, khi, err := splitRanges(b, r, i, lo, hi)
		if err != nil {
			return 0, 0, err
		}
		recv := tmp[:(khi-klo)*bs]
		x.exchange(b.Partner(r, i), i, 0, seg[slo*bs:shi*bs], recv)
		if x.err != nil {
			return 0, 0, x.err
		}
		op.Apply(seg[klo*bs:khi*bs], recv)
		lo, hi = klo, khi
	}
	return lo, hi, nil
}

// agContigPhase reverses rsContigPhase, growing the owned position range
// [lo, hi) back to the whole of seg on every rank.
func agContigPhase(x *ctx, b *core.Butterfly, r int, seg []int32, lo, hi int) error {
	bs := len(seg) / b.P
	for i := 0; i < b.S; i++ {
		j := b.S - 1 - i
		plo, phi := keepRange(b, r, j-1)
		q := b.Partner(r, j)
		var olo, ohi int
		if lo == plo {
			olo, ohi = hi, phi
		} else {
			olo, ohi = plo, lo
		}
		x.exchange(q, i, 0, seg[lo*bs:hi*bs], seg[olo*bs:ohi*bs])
		if x.err != nil {
			return x.err
		}
		lo, hi = plo, phi
	}
	return nil
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

// rsContig is the permute/send reduce-scatter: one contiguous transmission
// per step in permuted position space.
func rsContig(c fabric.Comm, b *core.Butterfly, strat Strategy, buf, out []int32, op Op) error {
	r := c.Rank()
	bs := len(buf) / b.P
	pbuf := make([]int32, len(buf))
	if strat == Permute {
		for blk := 0; blk < b.P; blk++ {
			copy(pbuf[b.PermutedPosition(blk)*bs:], buf[blk*bs:(blk+1)*bs])
		}
	} else {
		copy(pbuf, buf)
	}
	x := &ctx{c: c}
	lo, hi, err := rsContigPhase(x, b, r, pbuf, op)
	if err != nil {
		return err
	}
	if hi-lo != 1 {
		return fmt.Errorf("coll: reduce-scatter ended owning %d positions", hi-lo)
	}
	if strat == Permute {
		// Position reverse(ν(r)) holds block r.
		copy(out, pbuf[lo*bs:hi*bs])
		return nil
	}
	// Send: the surviving position holds block `lo`, owned by rank `lo`;
	// one final exchange restores ownership (Sec. 4.3.1).
	if lo == r {
		copy(out, pbuf[lo*bs:hi*bs])
		return nil
	}
	x.send(lo, b.S, 0, pbuf[lo*bs:hi*bs])
	from := b.PermutedInverse(r) // the rank whose surviving position is r
	x.recv(from, b.S, 0, out)
	return x.err
}

// rsBlockByBlock transmits each block of the send set as its own message.
func rsBlockByBlock(c fabric.Comm, b *core.Butterfly, buf, out []int32, op Op) error {
	r := c.Rank()
	bs := len(buf) / b.P
	w := append([]int32(nil), buf...)
	x := &ctx{c: c}
	tmp := make([]int32, bs)
	var blks []int
	for i := 0; i < b.S; i++ {
		q := b.Partner(r, i)
		blks = b.AppendSendBlocks(blks[:0], r, i)
		for sub, blk := range blks {
			x.send(q, i, sub, w[blk*bs:(blk+1)*bs])
		}
		blks = b.AppendSendBlocks(blks[:0], q, i)
		for sub, blk := range blks {
			x.recv(q, i, sub, tmp)
			if x.err != nil {
				return x.err
			}
			op.Apply(w[blk*bs:(blk+1)*bs], tmp)
		}
	}
	copy(out, w[r*bs:(r+1)*bs])
	return x.err
}

// rsRuns is the two-transmissions reduce-scatter over the distance-halving
// butterfly: send sets are at most two circularly contiguous block runs.
func rsRuns(c fabric.Comm, b *core.Butterfly, buf, out []int32, op Op) error {
	r := c.Rank()
	bs := len(buf) / b.P
	w := append([]int32(nil), buf...)
	x := &ctx{c: c}
	stage := make([]int32, len(buf)/2)
	var runs []core.CircRange
	for i := 0; i < b.S; i++ {
		q := b.Partner(r, i)
		runs = b.SendRuns(runs[:0], r, i)
		for sub, run := range runs {
			x.send(q, i, sub, gatherRun(stage, w, run, bs))
		}
		runs = b.SendRuns(runs[:0], q, i)
		for sub, run := range runs {
			recv := stage[:run.Len*bs]
			x.recv(q, i, sub, recv)
			if x.err != nil {
				return x.err
			}
			head, tail := runSpans(w, run, bs)
			op.Apply(head, recv[:len(head)])
			op.Apply(tail, recv[len(head):])
		}
	}
	copy(out, w[r*bs:(r+1)*bs])
	return x.err
}

// runSpans returns the element spans of w (p blocks of bs) a circular block
// run covers: from its start up to the end of w, and the wrapped rest from
// index 0, empty when the run does not wrap.
func runSpans(w []int32, run core.CircRange, bs int) (head, tail []int32) {
	head = w[run.Start*bs:]
	n := run.Len * bs
	if len(head) >= n {
		return head[:n], w[:0]
	}
	return head, w[:n-len(head)]
}

// gatherRun returns a circular run of blocks of w as one contiguous payload:
// a subslice of w when the run does not wrap, else its two spans copied into
// stage (the sender-side staging copy the strategy implies).
func gatherRun(stage, w []int32, run core.CircRange, bs int) []int32 {
	head, tail := runSpans(w, run, bs)
	if len(tail) == 0 {
		return head
	}
	return append(append(stage[:0], head...), tail...)
}

// agContig is the permute/send allgather (reversed contiguous schedule).
func agContig(c fabric.Comm, b *core.Butterfly, strat Strategy, in, out []int32) error {
	r := c.Rank()
	bs := len(in)
	pbuf := out // build the position-space vector in place
	x := &ctx{c: c}
	pos := b.PermutedPosition(r)
	if strat == Send {
		// Pre-exchange (Sec. 4.3.1): seed position reverse(ν(r)) with block
		// reverse(ν(r)) so no terminal permutation is needed.
		t := b.PermutedInverse(r) // the rank whose seed position is block r
		if t == r {
			copy(pbuf[pos*bs:], in)
		} else {
			x.send(t, b.S, 0, in)
			x.recv(pos, b.S, 0, pbuf[pos*bs:(pos+1)*bs])
		}
	} else {
		copy(pbuf[pos*bs:], in)
	}
	if err := agContigPhase(x, b, r, pbuf, pos, pos+1); err != nil {
		return err
	}
	if strat == Permute {
		// Terminal permutation: position reverse(ν(b)) holds block b.
		tmp := append([]int32(nil), pbuf...)
		for blk := 0; blk < b.P; blk++ {
			copy(out[blk*bs:], tmp[b.PermutedPosition(blk)*bs:(b.PermutedPosition(blk)+1)*bs])
		}
	}
	return nil
}

// agBlockByBlock reverses rsBlockByBlock: at step i (reverse step j) each
// rank forwards the blocks its partner is missing, one message per block.
func agBlockByBlock(c fabric.Comm, b *core.Butterfly, in, out []int32) error {
	r := c.Rank()
	bs := len(in)
	copy(out[r*bs:], in)
	x := &ctx{c: c}
	var blks []int
	for i := 0; i < b.S; i++ {
		j := b.S - 1 - i
		q := b.Partner(r, j)
		blks = b.AppendSendBlocks(blks[:0], q, j)
		for sub, blk := range blks {
			x.send(q, i, sub, out[blk*bs:(blk+1)*bs])
		}
		blks = b.AppendSendBlocks(blks[:0], r, j)
		for sub, blk := range blks {
			x.recv(q, i, sub, out[blk*bs:(blk+1)*bs])
		}
		if x.err != nil {
			return x.err
		}
	}
	return nil
}

// agRuns reverses rsRuns over the distance-halving butterfly.
func agRuns(c fabric.Comm, b *core.Butterfly, in, out []int32) error {
	r := c.Rank()
	bs := len(in)
	copy(out[r*bs:], in)
	x := &ctx{c: c}
	stage := make([]int32, len(out)/2)
	var runs []core.CircRange
	for i := 0; i < b.S; i++ {
		j := b.S - 1 - i
		q := b.Partner(r, j)
		runs = b.SendRuns(runs[:0], q, j)
		for sub, run := range runs {
			x.send(q, i, sub, gatherRun(stage, out, run, bs))
		}
		runs = b.SendRuns(runs[:0], r, j)
		for sub, run := range runs {
			recv := stage[:run.Len*bs]
			x.recv(q, i, sub, recv)
			if x.err != nil {
				return x.err
			}
			head, tail := runSpans(out, run, bs)
			copy(tail, recv[copy(head, recv):])
		}
	}
	return x.err
}
