package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Bcast broadcasts the root's buf down the tree; every rank's buf holds the
// full vector on return. This is the small-vector broadcast of Sec. 4.5 when
// given a distance-halving Bine tree, and the Open MPI / MPICH baselines
// when given binomial trees.
func Bcast(c fabric.Comm, t *core.Tree, buf []int32) error {
	if err := checkTree(c, t); err != nil {
		return err
	}
	x := &ctx{c: c}
	r := c.Rank()
	if r != t.Root {
		x.recv(t.Parent[r], t.JoinStep[r], 0, buf)
	}
	for _, e := range t.Children[r] {
		x.send(e.Child, e.Step, 0, buf)
	}
	return x.err
}

// Reduce folds every rank's in vector with op up the tree; the fully reduced
// vector lands in out at the root (out is ignored elsewhere and may be nil).
// This is the small-vector reduce of Sec. 4.5. in is not modified.
func Reduce(c fabric.Comm, t *core.Tree, in, out []int32, op Op) error {
	if err := checkTree(c, t); err != nil {
		return err
	}
	r := c.Rank()
	if r == t.Root && len(out) != len(in) {
		return fmt.Errorf("coll: reduce out has %d elements, want %d", len(out), len(in))
	}
	x := &ctx{c: c}
	acc, tmp := in, []int32(nil) // a leaf sends its input as it is
	if len(t.Children[r]) > 0 {
		acc, tmp = append([]int32(nil), in...), make([]int32, len(in))
	}
	// Gather direction: the broadcast edge at step s fires at reduce step
	// Steps−1−s, child → parent. Children joined later send earlier, so by
	// a rank's own send time all its children have reported.
	for k := len(t.Children[r]) - 1; k >= 0; k-- {
		e := t.Children[r][k]
		x.recv(e.Child, t.Steps-1-e.Step, 0, tmp)
		if x.err != nil {
			return x.err
		}
		op.Apply(acc, tmp)
	}
	if r == t.Root {
		copy(out, acc)
		return nil
	}
	x.send(t.Parent[r], t.Steps-1-t.JoinStep[r], 0, acc)
	return x.err
}

// Gather collects each rank's in block (bs elements) to the root: out at the
// root (p·bs elements) ends with rank i's block at position i. The buffer
// ranges grow exactly as in Sec. 4.1: with a Bine tree every intermediate
// holding is a circularly contiguous block range (Fig. 7).
func Gather(c fabric.Comm, t *core.Tree, in, out []int32) error {
	if err := checkTree(c, t); err != nil {
		return err
	}
	r := c.Rank()
	bs := len(in)
	if r == t.Root && len(out) != bs*t.P {
		return fmt.Errorf("coll: gather out has %d elements, want %d", len(out), bs*t.P)
	}
	x := &ctx{c: c}
	w := out
	if r != t.Root {
		w = make([]int32, bs*t.P)
	}
	copy(w[r*bs:], in)
	for k := len(t.Children[r]) - 1; k >= 0; k-- {
		e := t.Children[r][k]
		sub := t.Subtree(e.Child)
		recv := make([]int32, len(sub)*bs)
		x.recv(e.Child, t.Steps-1-e.Step, 0, recv)
		if x.err != nil {
			return x.err
		}
		for i, blk := range sub {
			copy(w[blk*bs:(blk+1)*bs], recv[i*bs:(i+1)*bs])
		}
	}
	if r == t.Root {
		return x.err
	}
	mine := t.Subtree(r)
	payload := make([]int32, 0, len(mine)*bs)
	for _, blk := range mine {
		payload = append(payload, w[blk*bs:(blk+1)*bs]...)
	}
	x.send(t.Parent[r], t.Steps-1-t.JoinStep[r], 0, payload)
	return x.err
}

// Scatter distributes the root's in vector (p·bs elements) down the tree;
// each rank's out (bs elements) receives block rank. This is the reverse of
// Gather (Sec. 4.2).
func Scatter(c fabric.Comm, t *core.Tree, in, out []int32) error {
	if err := checkTree(c, t); err != nil {
		return err
	}
	r := c.Rank()
	bs := len(out)
	if r == t.Root && len(in) != bs*t.P {
		return fmt.Errorf("coll: scatter in has %d elements, want %d", len(in), bs*t.P)
	}
	x := &ctx{c: c}
	var w []int32 // blocks of this rank's subtree, in Subtree order
	mine := t.Subtree(r)
	if r == t.Root {
		w = make([]int32, 0, len(mine)*bs)
		for _, blk := range mine {
			w = append(w, in[blk*bs:(blk+1)*bs]...)
		}
	} else {
		w = make([]int32, len(mine)*bs)
		x.recv(t.Parent[r], t.JoinStep[r], 0, w)
		if x.err != nil {
			return x.err
		}
	}
	at := func(blk int) []int32 {
		for i, b := range mine {
			if b == blk {
				return w[i*bs : (i+1)*bs]
			}
		}
		panic("coll: block not in subtree")
	}
	for _, e := range t.Children[r] {
		sub := t.Subtree(e.Child)
		payload := make([]int32, 0, len(sub)*bs)
		for _, blk := range sub {
			payload = append(payload, at(blk)...)
		}
		x.send(e.Child, e.Step, 0, payload)
	}
	copy(out, at(r))
	return x.err
}

func checkTree(c fabric.Comm, t *core.Tree) error {
	if c.Size() != t.P {
		return fmt.Errorf("coll: tree over %d ranks on a %d-rank communicator", t.P, c.Size())
	}
	return nil
}

// LinearBcast is the flat baseline: the root sends the vector to every rank
// directly.
func LinearBcast(c fabric.Comm, root int, buf []int32) error {
	x := &ctx{c: c}
	if c.Rank() == root {
		for to := 0; to < c.Size(); to++ {
			if to != root {
				x.send(to, 0, 0, buf)
			}
		}
		return x.err
	}
	x.recv(root, 0, 0, buf)
	return x.err
}

// LinearGather is the flat baseline gather: every rank sends its block
// straight to the root.
func LinearGather(c fabric.Comm, root int, in, out []int32) error {
	x := &ctx{c: c}
	p := c.Size()
	bs := len(in)
	if c.Rank() == root {
		if len(out) != p*bs {
			return fmt.Errorf("coll: gather out has %d elements, want %d", len(out), p*bs)
		}
		copy(out[root*bs:], in)
		for from := 0; from < p; from++ {
			if from != root {
				x.recv(from, 0, 0, out[from*bs:(from+1)*bs])
			}
		}
		return x.err
	}
	x.send(root, 0, 0, in)
	return x.err
}

// LinearScatter is the flat baseline scatter.
func LinearScatter(c fabric.Comm, root int, in, out []int32) error {
	x := &ctx{c: c}
	p := c.Size()
	bs := len(out)
	if c.Rank() == root {
		if len(in) != p*bs {
			return fmt.Errorf("coll: scatter in has %d elements, want %d", len(in), p*bs)
		}
		for to := 0; to < p; to++ {
			if to != root {
				x.send(to, 0, 0, in[to*bs:(to+1)*bs])
			}
		}
		copy(out, in[root*bs:(root+1)*bs])
		return x.err
	}
	x.recv(root, 0, 0, out)
	return x.err
}

// LinearReduce is the flat baseline reduce: the root folds every rank's
// vector directly.
func LinearReduce(c fabric.Comm, root int, in, out []int32, op Op) error {
	x := &ctx{c: c}
	if c.Rank() == root {
		if len(out) != len(in) {
			return fmt.Errorf("coll: reduce out has %d elements, want %d", len(out), len(in))
		}
		copy(out, in)
		tmp := make([]int32, len(in))
		for from := 0; from < c.Size(); from++ {
			if from == root {
				continue
			}
			x.recv(from, 0, 0, tmp)
			if x.err != nil {
				return x.err
			}
			op.Apply(out, tmp)
		}
		return nil
	}
	x.send(root, 0, 0, in)
	return x.err
}
