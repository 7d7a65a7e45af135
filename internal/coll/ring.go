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
// out, using the classic p−1 step ring (ringPlan): at step t each rank sends
// the partial for block (rank−t−1) to its successor and folds the incoming
// partial for block (rank−t−2) from its predecessor, ending with its own
// block fully reduced. buf is not modified.
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
	w := append([]int32(nil), buf...)
	if err := ringPlan(p, len(buf), 1).run(&ctx{c: c}, r, w, 0, p-1, &op); err != nil {
		return err
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
	return ringPlan(p, len(out), 0).run(&ctx{c: c}, r, out, 0, p-1, nil)
}

// RingAllreduce is the classic large-vector ring allreduce: ring
// reduce-scatter followed by ring allgather, 2(p−1) steps of n/p elements,
// in place on buf.
func RingAllreduce(c fabric.Comm, buf []int32, op Op) error {
	p := c.Size()
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	pl, x := ringPlan(p, len(buf), 1, 0), &ctx{c: c}
	if err := pl.run(x, c.Rank(), buf, 0, p-1, &op); err != nil {
		return err
	}
	return pl.run(x, c.Rank(), buf, p-1, pl.steps, nil)
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
