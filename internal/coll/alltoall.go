package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Alltoall algorithms. Conceptually the paper's Bine alltoall is "a small
// vector allreduce where ranks send n/2 bytes at each step and the received
// data is concatenated rather than aggregated" (Sec. 4.4): items ride the
// same Bine routing as reduce-scatter partials, plus a final local
// permutation that the item headers make implicit here.
//
// Every log-step alltoall below routes (origin, destination, payload) items:
// a message is a sequence of items, each encoded as one header element (the
// origin rank) followed by the bs payload elements. Headers let the receiver
// scatter items into place without any out-of-band agreement; the one-element
// overhead per block is charged to the algorithms honestly in the traces.

// BineAlltoall routes items over the distance-doubling Bine butterfly: at
// step i the items whose destination lies in the partner's half (the same
// block sets as the Bine reduce-scatter) move to the partner, n/2 elements
// per step over log2(p) steps.
func BineAlltoall(c fabric.Comm, b *core.Butterfly, buf, out []int32) error {
	if err := checkButterfly(c, b, len(buf)); err != nil {
		return err
	}
	if len(out) != len(buf) {
		return fmt.Errorf("coll: alltoall out has %d elements, want %d", len(out), len(buf))
	}
	p := b.P
	r := c.Rank()
	bs := len(buf) / p
	if p == 1 {
		copy(out, buf)
		return nil
	}
	// cur holds the items currently at this rank in wire encoding, grouped by
	// destination: before step i the 2^i items destined for block d start at
	// element at[d]. next is the staging buffer the step regroups into.
	w := bs + 1
	cur, next := make([]int32, p*w), make([]int32, 0, p*w)
	at := make([]int, p)
	for d := 0; d < p; d++ {
		at[d] = d * w
		cur[d*w] = int32(r)
		copy(cur[d*w+1:(d+1)*w], buf[d*bs:(d+1)*bs])
	}
	msg := make([]int32, 0, p/2*w)
	recv := make([]int32, p/2*w)
	blks := make([]int, 0, p/2)
	pl := bineAlltoallPlan(b, len(buf))
	var mine, theirs []extent
	x := &ctx{c: c}
	for i := 0; i < b.S; i++ {
		q, _, m, _ := pl.at(mine[:0], r, i)
		mine = m
		run := w << uint(i) // elements held per destination
		msg = msg[:0]
		for _, d := range b.AppendSendBlocks(blks[:0], r, i) {
			msg = append(msg, cur[at[d]:at[d]+run]...)
		}
		if len(msg) != mine[0].n {
			return fmt.Errorf("coll: alltoall rank %d step %d: message of %d elements, plan says %d", r, i, len(msg), mine[0].n)
		}
		// The partner's message mirrors ours: its send blocks are exactly the
		// blocks we keep, packed in its AppendSendBlocks order, 2^i items each.
		_, _, theirs, _ = pl.at(theirs[:0], q, i)
		in := recv[:theirs[0].n]
		x.exchange(q, i, 0, msg, in)
		if x.err != nil {
			return x.err
		}
		next = next[:0]
		for k, d := range b.AppendSendBlocks(blks[:0], q, i) {
			start := len(next)
			next = append(next, cur[at[d]:at[d]+run]...)
			next = append(next, in[k*run:(k+1)*run]...)
			at[d] = start
		}
		cur, next = next, cur
	}
	// Only block r survives every step: cur is its p items, one per origin.
	if got := len(cur) / w; got != p {
		return fmt.Errorf("coll: alltoall rank %d assembled %d of %d items", r, got, p)
	}
	for k := 0; k < p; k++ {
		origin := int(cur[k*w])
		copy(out[origin*bs:(origin+1)*bs], cur[k*w+1:(k+1)*w])
	}
	return nil
}

// BruckAlltoall is the classic logarithmic baseline (the closest binomial
// relative, used for the comparison in Sec. 5.1.1): items whose remaining
// ring displacement has bit k set hop k-th-power-of-two positions forward.
// Partners and message lengths come from bruckAlltoallPlan; each step still
// sends its item count in a one-element header, as the schedule does on the
// wire, and the receiver checks it against the plan.
func BruckAlltoall(c fabric.Comm, buf, out []int32) error {
	p := c.Size()
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	if len(out) != len(buf) {
		return fmt.Errorf("coll: alltoall out has %d elements, want %d", len(out), len(buf))
	}
	r := c.Rank()
	bs := len(buf) / p
	if p == 1 {
		copy(out, buf)
		return nil
	}
	type routed struct {
		origin, dest int
		data         []int32
	}
	var held []routed
	for d := 0; d < p; d++ {
		held = append(held, routed{origin: r, dest: d,
			data: append([]int32(nil), buf[d*bs:(d+1)*bs]...)})
	}
	pl := bruckAlltoallPlan(p, len(buf))
	var mine, theirs []extent
	x := &ctx{c: c}
	for step := 0; step < pl.steps; step++ {
		k := 1 << step
		to, from, m, _ := pl.at(mine[:0], r, step)
		mine = m
		var stay []routed
		var msg []int32
		moved := 0
		for _, it := range held {
			if (mod(it.dest-r, p)/k)%2 == 1 {
				msg = append(msg, int32(it.origin), int32(it.dest))
				msg = append(msg, it.data...)
				moved++
			} else {
				stay = append(stay, it)
			}
		}
		if len(msg) != mine[0].n {
			return fmt.Errorf("coll: bruck rank %d step %d: %d items moved, plan says %d", r, step, moved, mine[0].n/(bs+2))
		}
		_, _, theirs, _ = pl.at(theirs[:0], from, step)
		x.send(to, step, 0, msg)
		var cnt [1]int32
		x.send(to, step, 1, []int32{int32(moved)})
		x.recv(from, step, 1, cnt[:])
		if x.err != nil {
			return x.err
		}
		if int(cnt[0])*(bs+2) != theirs[0].n {
			return fmt.Errorf("coll: bruck rank %d step %d: %d items announced, plan says %d", r, step, cnt[0], theirs[0].n/(bs+2))
		}
		recv := make([]int32, theirs[0].n)
		x.recv(from, step, 0, recv)
		if x.err != nil {
			return x.err
		}
		held = stay
		for i := 0; i < int(cnt[0]); i++ {
			chunk := recv[i*(bs+2) : (i+1)*(bs+2)]
			held = append(held, routed{origin: int(chunk[0]), dest: int(chunk[1]),
				data: append([]int32(nil), chunk[2:]...)})
		}
	}
	n := 0
	for _, it := range held {
		if it.dest != r {
			return fmt.Errorf("coll: bruck item for %d stranded at %d", it.dest, r)
		}
		copy(out[it.origin*bs:(it.origin+1)*bs], it.data)
		n++
	}
	if n != p {
		return fmt.Errorf("coll: bruck assembled %d of %d items", n, p)
	}
	return nil
}

// PairwiseAlltoall is the linear baseline (pairwisePlan): p−1 direct
// exchanges (rank r sends to r+t and receives from r−t at step t−1).
func PairwiseAlltoall(c fabric.Comm, buf, out []int32) error {
	p := c.Size()
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	if len(out) != len(buf) {
		return fmt.Errorf("coll: alltoall out has %d elements, want %d", len(out), len(buf))
	}
	r := c.Rank()
	bs := len(buf) / p
	copy(out[r*bs:(r+1)*bs], buf[r*bs:(r+1)*bs])
	pl := pairwisePlan(p, len(buf))
	var mine, theirs []extent
	x := &ctx{c: c}
	for s := 0; s < pl.steps; s++ {
		to, from, m, _ := pl.at(mine[:0], r, s)
		mine = m
		_, _, theirs, _ = pl.at(theirs[:0], from, s)
		x.send(to, s, 0, buf[mine[0].off:mine[0].off+mine[0].n])
		// from's block for r lands at block from.
		x.recv(from, s, 0, out[from*bs:from*bs+theirs[0].n])
		if x.err != nil {
			return x.err
		}
	}
	return nil
}

// BruckAllgather is the classic Bruck allgather baseline
// (bruckAllgatherPlan): at step k each rank sends all blocks it holds to
// rank r−2^k and receives from r+2^k, doubling ownership per step. The
// blocks a rank holds are a circular run from its own, so they move in
// place in out, with no rotated copy.
func BruckAllgather(c fabric.Comm, in, out []int32) error {
	p := c.Size()
	bs := len(in)
	if err := checkGatherOut(len(out), p, bs); err != nil {
		return err
	}
	r := c.Rank()
	copy(out[r*bs:], in)
	pl := bruckAllgatherPlan(p, len(out))
	return pl.run(&ctx{c: c}, r, out, 0, pl.steps, nil)
}

// SparbitAllgather models the sparbit algorithm (Loch & Koslovski, cited by
// the paper as a state-of-the-art log-cost allgather): a distance-halving
// binomial exchange transmitting the non-contiguous block sets
// block-by-block (sparbitPlan), preserving data locality at the price of
// per-block messages.
func SparbitAllgather(c fabric.Comm, in, out []int32) error {
	pl, err := sparbitPlan(c.Size(), len(out))
	if err != nil {
		return err
	}
	if err := checkGatherOut(len(out), c.Size(), len(in)); err != nil {
		return err
	}
	r := c.Rank()
	copy(out[r*len(in):], in)
	return pl.run(&ctx{c: c}, r, out, 0, pl.steps, nil)
}
