package coll

import (
	"fmt"
	"sort"

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
	x := &ctx{c: c}
	for i := 0; i < b.S; i++ {
		q := b.Partner(r, i)
		run := w << uint(i) // elements held per destination
		msg = msg[:0]
		for _, d := range b.AppendSendBlocks(blks[:0], r, i) {
			msg = append(msg, cur[at[d]:at[d]+run]...)
		}
		// The partner's message mirrors ours: its send blocks are exactly the
		// blocks we keep, packed in its AppendSendBlocks order, 2^i items each.
		theirs := b.AppendSendBlocks(blks[:0], q, i)
		in := recv[:len(theirs)*run]
		x.exchange(q, i, 0, msg, in)
		if x.err != nil {
			return x.err
		}
		next = next[:0]
		for k, d := range theirs {
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
	x := &ctx{c: c}
	step := 0
	for k := 1; k < p; k <<= 1 {
		to := (r + k) % p
		from := mod(r-k, p)
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
		x.send(to, step, 0, msg)
		// Peer count mirrors ours only for power-of-two p; receive length
		// is negotiated with a small header message otherwise.
		var cnt [1]int32
		x.send(to, step, 1, []int32{int32(moved)})
		x.recv(from, step, 1, cnt[:])
		if x.err != nil {
			return x.err
		}
		recv := make([]int32, int(cnt[0])*(bs+2))
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
		step++
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

// PairwiseAlltoall is the linear baseline: p−1 direct exchanges
// (rank r sends to r+t and receives from r−t at step t).
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
	x := &ctx{c: c}
	for t := 1; t < p; t++ {
		to := (r + t) % p
		from := mod(r-t, p)
		x.send(to, t-1, 0, buf[to*bs:(to+1)*bs])
		x.recv(from, t-1, 0, out[from*bs:(from+1)*bs])
		if x.err != nil {
			return x.err
		}
	}
	return nil
}

// BruckAllgather is the classic Bruck allgather baseline: at step k each
// rank sends all blocks it holds to rank r−2^k and receives from r+2^k,
// doubling ownership per step (contiguous in a rotated view).
func BruckAllgather(c fabric.Comm, in, out []int32) error {
	p := c.Size()
	bs := len(in)
	if err := checkGatherOut(len(out), p, bs); err != nil {
		return err
	}
	r := c.Rank()
	if p == 1 {
		copy(out, in)
		return nil
	}
	// Rotated working buffer: position i holds block (r+i) mod p.
	w := make([]int32, p*bs)
	copy(w[:bs], in)
	have := 1
	x := &ctx{c: c}
	step := 0
	for k := 1; k < p; k <<= 1 {
		to := mod(r-k, p)
		from := (r + k) % p
		cnt := have
		if cnt > p-k {
			cnt = p - k
		}
		x.send(to, step, 0, w[:cnt*bs])
		x.recv(from, step, 0, w[have*bs:(have+cnt)*bs])
		if x.err != nil {
			return x.err
		}
		have += cnt
		step++
	}
	for i := 0; i < p; i++ {
		blk := (r + i) % p
		copy(out[blk*bs:(blk+1)*bs], w[i*bs:(i+1)*bs])
	}
	return nil
}

// SparbitAllgather models the sparbit algorithm (Loch & Koslovski, cited by
// the paper as a state-of-the-art log-cost allgather): a distance-halving
// binomial exchange transmitting the non-contiguous block sets
// block-by-block, preserving data locality at the price of per-block
// messages.
func SparbitAllgather(c fabric.Comm, in, out []int32) error {
	p := c.Size()
	s, ok := core.Log2(p)
	if !ok {
		return fmt.Errorf("coll: sparbit requires power-of-two ranks, got %d", p)
	}
	bs := len(in)
	if err := checkGatherOut(len(out), p, bs); err != nil {
		return err
	}
	r := c.Rank()
	copy(out[r*bs:], in)
	owned := []int{r}
	x := &ctx{c: c}
	for i := 0; i < s; i++ {
		q := r ^ (p >> uint(i+1))
		// Send every owned block as its own message (sparbit's per-block
		// transfers), receive the partner's mirrored set.
		for sub, blk := range owned {
			x.send(q, i, sub, out[blk*bs:(blk+1)*bs])
		}
		theirs := make([]int, len(owned))
		for k, blk := range owned {
			theirs[k] = blk ^ (p >> uint(i+1))
		}
		sort.Ints(theirs)
		for sub, blk := range theirs {
			x.recv(q, i, sub, out[blk*bs:(blk+1)*bs])
		}
		if x.err != nil {
			return x.err
		}
		owned = append(owned, theirs...)
		sort.Ints(owned)
	}
	return nil
}
