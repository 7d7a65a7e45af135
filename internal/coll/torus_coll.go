package coll

import (
	"cmp"
	"fmt"
	"slices"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Torus-optimized collectives (Appendix D): ranks are coordinates of a
// multidimensional torus and every communication moves along a single
// dimension, keeping hop counts minimal. Each dimension runs a 1-D
// collective over the Line sub-communicator of that dimension.

// TorusAllreduce performs the Appendix D Bine allreduce: a per-dimension
// reduce-scatter sweep (dimensions ascending) followed by the mirrored
// per-dimension allgather sweep. Every dimension size must be a power of
// two; the vector length must be a multiple of the total rank count.
func TorusAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	return torusAllreduce(c, tor, buf, op, identityOrder(tor.NDims()), false, 0)
}

// torusAllreduce is the dimension-order/mirror parameterized core shared
// with the multi-ported variant. order lists the dimensions in processing
// sequence; mirror reverses every line, flipping the direction the Bine
// schedule walks around each ring (Appendix D.4's opposite-port planes).
// width is every dimension phase's step count, 0 for its own log2 steps. The
// allgathers follow the reduce-scatters, run in reverse order but numbered
// in order: each offsets its reduce-scatter's sub-communicator by rsLen.
func torusAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op, order []int, mirror bool, width int) error {
	p := tor.P()
	if c.Size() != p {
		return fmt.Errorf("coll: torus of %d ranks on a %d-rank communicator", p, c.Size())
	}
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	r := c.Rank()
	type phase struct {
		b   *core.Butterfly
		sub fabric.Comm
		me  int
		seg []int32
	}
	phases := make([]phase, 0, len(order))
	seg := buf
	rsLen := 0 // steps of the reduce-scatter phases so far
	for _, d := range order {
		qd := tor.Dims[d]
		start := rsLen
		rsLen += cmp.Or(width, core.Log2Ceil(qd))
		if qd == 1 {
			continue
		}
		b, err := core.NewButterfly(core.BflyBineDD, qd)
		if err != nil {
			return fmt.Errorf("coll: torus dimension %d: %w", d, err)
		}
		line := tor.Line(r, d)
		if mirror {
			line = mirrorLine(line)
		}
		sub, err := Group(Offset(c, start), line)
		if err != nil {
			return err
		}
		if len(seg)%qd != 0 {
			return fmt.Errorf("coll: segment of %d elements not divisible by dimension %d (size %d)", len(seg), d, qd)
		}
		me := sub.Rank()
		if err := halving(b, Permute, len(seg)).run(&ctx{c: sub}, me, seg, 0, b.S, &op); err != nil {
			return err
		}
		bs := len(seg) / qd
		lo, hi := keepRange(b, me, b.S-1)
		phases = append(phases, phase{b: b, sub: sub, me: me, seg: seg})
		seg = seg[lo*bs : hi*bs]
	}
	for k := len(phases) - 1; k >= 0; k-- {
		ph := phases[k]
		ag := Offset(ph.sub, rsLen)
		if err := doubling(ph.b, Permute, len(ph.seg)).run(&ctx{c: ag}, ph.me, ph.seg, 0, ph.b.S, nil); err != nil {
			return err
		}
	}
	return nil
}

// mirrorLine reverses the orientation of a ring line while keeping the same
// member at index 0 (so coordinates stay aligned across ranks of the line).
func mirrorLine(line []int) []int {
	out := make([]int, len(line))
	out[0] = line[0]
	for i := 1; i < len(line); i++ {
		out[i] = line[len(line)-i]
	}
	return out
}

func identityOrder(d int) []int {
	out := make([]int, d)
	for i := range out {
		out[i] = i
	}
	return out
}

// TorusMultiportAllreduce exploits one NIC per torus direction (Appendix
// D.4): the vector is split into 2·D slices and 2·D allreduces run
// concurrently, each starting on a different dimension (rotated order) and
// direction (mirrored lines for the second half). Message tags share step
// numbers across planes — the planes genuinely overlap on the wire — and
// use disjoint sub windows. Every plane gives each of its dimension phases
// the largest dimension's step count, so phase k starts at the same step in
// every plane.
func TorusMultiportAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	d := tor.NDims()
	planes := 2 * d
	p := tor.P()
	if len(buf)%(planes*p) != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d plane blocks", len(buf), planes*p)
	}
	sliceLen := len(buf) / planes
	width := core.Log2Ceil(slices.Max(tor.Dims))
	for k := 0; k < planes; k++ {
		order := make([]int, d)
		for j := range order {
			order[j] = (k + j) % d
		}
		mirror := k >= d
		slice := buf[k*sliceLen : (k+1)*sliceLen]
		if err := torusAllreduce(SubShift(c, (k+1)*1024), tor, slice, op, order, mirror, width); err != nil {
			return fmt.Errorf("coll: multiport plane %d: %w", k, err)
		}
	}
	return nil
}

// BucketAllreduce is the torus-optimized Bucket baseline (Jain & Sabharwal,
// cited in Sec. 5): a multi-dimensional ring — per-dimension ring
// reduce-scatter sweeps followed by reversed ring allgather sweeps. It
// handles arbitrary dimension sizes.
func BucketAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	p := tor.P()
	if c.Size() != p {
		return fmt.Errorf("coll: torus of %d ranks on a %d-rank communicator", p, c.Size())
	}
	if err := checkBlocks(len(buf), p); err != nil {
		return err
	}
	r := c.Rank()
	d := tor.NDims()
	type phase struct {
		sub fabric.Comm
		seg []int32
		own []int32
	}
	phases := make([]phase, 0, d)
	seg := buf
	rsLen := 0 // steps of the reduce-scatter phases so far
	for k := 0; k < d; k++ {
		qd := tor.Dims[k]
		if qd == 1 {
			continue
		}
		line := tor.Line(r, k)
		sub, err := Group(Offset(c, rsLen), line)
		if err != nil {
			return err
		}
		rsLen += qd - 1
		bs := len(seg) / qd
		own := seg[sub.Rank()*bs : (sub.Rank()+1)*bs]
		tmp := make([]int32, bs)
		if err := RingReduceScatter(sub, seg, tmp, op); err != nil {
			return err
		}
		copy(own, tmp)
		phases = append(phases, phase{sub: sub, seg: seg, own: own})
		seg = own
	}
	for k := len(phases) - 1; k >= 0; k-- {
		ph := phases[k]
		ag := Offset(ph.sub, rsLen)
		if err := RingAllgather(ag, ph.own, ph.seg); err != nil {
			return err
		}
	}
	return nil
}

// torusTrees builds the per-dimension trees of TorusBcast and TorusReduce,
// rooted at the root's coordinates rc, and the step each dimension's phase
// starts at: the phases are numbered in ascending dimension order, whichever
// order they run in.
func torusTrees(tor core.Torus, kind core.Kind, rc []int) (trees []*core.Tree, start []int, err error) {
	trees, start = make([]*core.Tree, tor.NDims()), make([]int, tor.NDims())
	next := 0
	for d, qd := range tor.Dims {
		if trees[d], err = core.NewTree(kind, qd, rc[d]); err != nil {
			return nil, nil, err
		}
		start[d], next = next, next+trees[d].Steps
	}
	return trees, start, nil
}

// TorusBcast broadcasts along one dimension at a time (Appendix D): after
// phase d, every rank whose trailing coordinates match the root's holds the
// vector; the final phase covers the whole torus.
func TorusBcast(c fabric.Comm, tor core.Torus, kind core.Kind, root int, buf []int32) error {
	p := tor.P()
	if c.Size() != p {
		return fmt.Errorf("coll: torus of %d ranks on a %d-rank communicator", p, c.Size())
	}
	r := c.Rank()
	my := tor.Coord(r)
	rc := tor.Coord(root)
	trees, start, err := torusTrees(tor, kind, rc)
	if err != nil {
		return err
	}
	for d := 0; d < tor.NDims(); d++ {
		if tor.Dims[d] == 1 || !slices.Equal(my[d+1:], rc[d+1:]) {
			continue
		}
		sub, err := Group(Offset(c, start[d]), tor.Line(r, d))
		if err != nil {
			return err
		}
		if err := Bcast(sub, trees[d], buf); err != nil {
			return err
		}
	}
	return nil
}

// TorusReduce reverses TorusBcast: per-dimension tree reductions walking the
// dimensions from last to first. out receives the result at the root.
func TorusReduce(c fabric.Comm, tor core.Torus, kind core.Kind, root int, in, out []int32, op Op) error {
	p := tor.P()
	if c.Size() != p {
		return fmt.Errorf("coll: torus of %d ranks on a %d-rank communicator", p, c.Size())
	}
	r := c.Rank()
	my := tor.Coord(r)
	rc := tor.Coord(root)
	if r == root && len(out) != len(in) {
		return fmt.Errorf("coll: reduce out has %d elements, want %d", len(out), len(in))
	}
	trees, start, err := torusTrees(tor, kind, rc)
	if err != nil {
		return err
	}
	acc := append([]int32(nil), in...)
	for d := tor.NDims() - 1; d >= 0; d-- {
		if tor.Dims[d] == 1 || !slices.Equal(my[d+1:], rc[d+1:]) {
			continue
		}
		sub, err := Group(Offset(c, start[d]), tor.Line(r, d))
		if err != nil {
			return err
		}
		res := make([]int32, len(acc))
		if err := Reduce(sub, trees[d], acc, res, op); err != nil {
			return err
		}
		if my[d] != rc[d] {
			return nil // contributed; not on the path to the root
		}
		acc = res
	}
	copy(out, acc)
	return nil
}
