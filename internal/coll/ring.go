package coll

import (
	"fmt"

	"binetrees/internal/fabric"
)

// ring collectives: the bandwidth-optimal baselines the paper compares
// against for large vectors (Sec. 5.2.2). Each rank talks only to its ring
// neighbours, so global-link traffic is minimal but the step count is linear
// in p.

// RingReduceScatter reduces buf (p·bs elements) and leaves block rank in
// out, using the classic p−1 step ring: at step t each rank sends the
// partial for block (rank−t−1) to its successor and folds the incoming
// partial for block (rank−t−1) … shifted, ending with its own block fully
// reduced. buf is not modified.
func RingReduceScatter(c fabric.Comm, buf, out []int32, op Op) error {
	p := c.Size()
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	bs := len(buf) / p
	if len(out) != bs {
		return fmt.Errorf("coll: reduce-scatter out has %d elements, want %d", len(out), bs)
	}
	r := c.Rank()
	if p == 1 {
		copy(out, buf)
		return nil
	}
	w := append([]int32(nil), buf...)
	x := &ctx{c: c}
	next, prev := (r+1)%p, (r+p-1)%p
	tmp := make([]int32, bs)
	for t := 0; t < p-1; t++ {
		sblk := mod(r-t-1, p) // partial this rank forwards
		rblk := mod(r-t-2, p) // partial arriving from the predecessor
		x.send(next, t, 0, w[sblk*bs:(sblk+1)*bs])
		x.recv(prev, t, 0, tmp)
		if x.err != nil {
			return x.err
		}
		op.Apply(w[rblk*bs:(rblk+1)*bs], tmp)
	}
	copy(out, w[r*bs:(r+1)*bs])
	return nil
}

// RingAllgather distributes each rank's block around the ring in p−1 steps.
func RingAllgather(c fabric.Comm, in, out []int32) error {
	p := c.Size()
	bs := len(in)
	if err := checkGatherOut(len(out), p, bs); err != nil {
		return err
	}
	r := c.Rank()
	copy(out[r*bs:], in)
	if p == 1 {
		return nil
	}
	x := &ctx{c: c}
	next, prev := (r+1)%p, (r+p-1)%p
	for t := 0; t < p-1; t++ {
		sblk := mod(r-t, p)
		rblk := mod(r-t-1, p)
		x.send(next, t, 0, out[sblk*bs:(sblk+1)*bs])
		x.recv(prev, t, 0, out[rblk*bs:(rblk+1)*bs])
		if x.err != nil {
			return x.err
		}
	}
	return nil
}

// RingAllreduce is the classic large-vector ring allreduce: ring
// reduce-scatter followed by ring allgather, 2(p−1) steps of n/p elements.
func RingAllreduce(c fabric.Comm, buf []int32, op Op) error {
	p := c.Size()
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	bs := len(buf) / p
	own := make([]int32, bs)
	if err := RingReduceScatter(c, buf, own, op); err != nil {
		return err
	}
	return RingAllgather(Offset(c, p-1), own, buf)
}

// ringPattern is the closed form of a ring schedule's trace, the registry
// Synth of all three. Every step of RingReduceScatter and RingAllgather has
// one body — rank r sends one block of n/p elements to r+1 mod p — so the
// trace is that one class of p records in rank order and a step index naming
// it p−1 times per phase (the allreduce runs two). A walk would emit the body
// at every step, O(p²) sends to keep p records. check is the schedule's own
// validation of n, so the closed form fails where the schedule does.
func ringPattern(phases int, check func(p, n int) error) func(p, root, n int) (Synthesizer, error) {
	return func(p, _, n int) (Synthesizer, error) {
		if err := check(p, n); err != nil {
			return nil, err
		}
		return synthFunc(func() (*fabric.Trace, error) {
			steps := phases * (p - 1)
			if steps == 0 {
				return fabric.NewClassTrace(p, nil, nil, nil, []int32{0, 0}, nil)
			}
			from, to, elems := make([]int32, p), make([]int32, p), make([]int32, p)
			for r := range p {
				from[r], to[r], elems[r] = int32(r), int32((r+1)%p), int32(n/p)
			}
			stepClass := make([]int32, steps)
			for s := range stepClass {
				stepClass[s] = 1
			}
			return fabric.NewClassTrace(p, from, to, elems, []int32{0, 0, int32(p)}, stepClass)
		}), nil
	}
}

// checkBlocks fails unless an n-element vector splits into p equal,
// non-empty blocks.
func checkBlocks(n, p int) error {
	if n%p != 0 || n == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d blocks", n, p)
	}
	return nil
}

// checkGatherOut fails unless an output of out elements holds p blocks of bs.
func checkGatherOut(out, p, bs int) error {
	if out != p*bs {
		return fmt.Errorf("coll: allgather out has %d elements, want %d", out, p*bs)
	}
	return nil
}

func mod(v, p int) int {
	m := v % p
	if m < 0 {
		m += p
	}
	return m
}
