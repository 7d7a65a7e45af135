package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Composite large-vector collectives (Sec. 4.5): broadcast as scatter +
// allgather and reduce as reduce-scatter + gather, in both Bine and
// binomial flavours. Composites run on a rotated communicator so the
// tree/butterfly root is always logical rank 0; block order is preserved
// end to end.

// rotatedComm is a view of inner in which global rank root becomes rank 0.
type rotatedComm struct {
	inner fabric.Comm
	root  int
}

func (r *rotatedComm) Rank() int { return mod(r.inner.Rank()-r.root, r.inner.Size()) }
func (r *rotatedComm) Size() int { return r.inner.Size() }

func (r *rotatedComm) Send(to, step, sub int, data []int32) error {
	return r.inner.Send((to+r.root)%r.inner.Size(), step, sub, data)
}

func (r *rotatedComm) Recv(from, step, sub int, buf []int32) error {
	return r.inner.Recv((from+r.root)%r.inner.Size(), step, sub, buf)
}

// checkComposite validates a rooted composite's inputs: a vector of n
// elements in whole blocks, a butterfly over c's ranks, and the tree rooted
// at logical rank 0 of the rotated view (its phase checks the tree's size).
func checkComposite(c fabric.Comm, tree *core.Tree, bfly *core.Butterfly, n int) error {
	if tree.Root != 0 {
		return fmt.Errorf("coll: composite needs a tree rooted at 0, got root %d", tree.Root)
	}
	return checkButterfly(c, bfly, n)
}

// BcastScatterAllgather is the large-vector broadcast: scatter down a tree,
// then allgather over a butterfly (Sec. 4.5 for Bine; the MPICH
// scatter+allgather broadcast when given binomial kinds). The tree is rooted
// at rank 0 — the collective runs on a view of c rotated by root — and, like
// the butterfly, is shared by every rank. The vector length must be a
// multiple of the rank count.
func BcastScatterAllgather(c fabric.Comm, tree *core.Tree, bfly *core.Butterfly, strat Strategy, root int, buf []int32) error {
	if err := checkComposite(c, tree, bfly, len(buf)); err != nil {
		return err
	}
	rc := &rotatedComm{inner: c, root: root}
	own := make([]int32, len(buf)/bfly.P)
	if err := Scatter(rc, tree, buf, own); err != nil {
		return err
	}
	return Allgather(Offset(rc, tree.Steps), bfly, strat, own, buf)
}

// ReduceRsGather is the large-vector reduce: butterfly reduce-scatter, then
// tree gather to the root (Sec. 4.5), over the same shared rank-0-rooted
// structures as BcastScatterAllgather. in is unmodified; out is the fully
// reduced vector at the root.
func ReduceRsGather(c fabric.Comm, bfly *core.Butterfly, tree *core.Tree, strat Strategy, root int, in, out []int32, op Op) error {
	if err := checkComposite(c, tree, bfly, len(in)); err != nil {
		return err
	}
	rc := &rotatedComm{inner: c, root: root}
	own := make([]int32, len(in)/bfly.P)
	if err := ReduceScatter(rc, bfly, strat, in, own, op); err != nil {
		return err
	}
	gatherAt := bfly.S
	if strat == Send {
		gatherAt++ // past the reduce-scatter's ownership exchange
	}
	return Gather(Offset(rc, gatherAt), tree, own, out)
}

// HierarchicalAllreduce is the Sec. 6.2 multi-GPU schedule: an intra-node
// reduce-scatter among the ranksPerNode ranks of each node, an inter-node
// Bine allreduce among ranks with equal local id, and an intra-node
// allgather. Node membership is contiguous: node i owns ranks
// [i·ranksPerNode, (i+1)·ranksPerNode).
func HierarchicalAllreduce(c fabric.Comm, ranksPerNode int, bflyKind core.ButterflyKind, buf []int32, op Op) error {
	p := c.Size()
	if ranksPerNode <= 0 || p%ranksPerNode != 0 {
		return fmt.Errorf("coll: %d ranks not divisible into nodes of %d", p, ranksPerNode)
	}
	nodes := p / ranksPerNode
	if len(buf)%ranksPerNode != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d node blocks", len(buf), ranksPerNode)
	}
	r := c.Rank()
	node, local := r/ranksPerNode, r%ranksPerNode
	nodeRanks := make([]int, ranksPerNode)
	for i := range nodeRanks {
		nodeRanks[i] = node*ranksPerNode + i
	}
	peerRanks := make([]int, nodes)
	for i := range peerRanks {
		peerRanks[i] = i*ranksPerNode + local
	}
	intra, err := Group(c, nodeRanks)
	if err != nil {
		return err
	}
	intraBfly, err := core.NewButterfly(core.BflyBinomialDH, ranksPerNode)
	if err != nil {
		return err
	}
	// Phase 1: intra-node reduce-scatter (GPUs are fully connected, so the
	// classic halving butterfly is already optimal locally).
	bs := len(buf) / ranksPerNode
	slice := make([]int32, bs)
	if err := ReduceScatter(intra, intraBfly, Permute, buf, slice, op); err != nil {
		return err
	}
	// Phase 2: inter-node Bine allreduce on the owned slice.
	phase3 := intraBfly.S
	if nodes > 1 {
		interBfly, err := core.NewButterfly(bflyKind, nodes)
		if err != nil {
			return err
		}
		inter, err := Group(Offset(c, intraBfly.S), peerRanks)
		if err != nil {
			return err
		}
		// Phase 3 starts interBfly.S steps after phase 2, so under
		// AllreduceRsAg it shares its steps with phase 2's allgather: the
		// numbering the published artifacts were priced with (ROADMAP item
		// 2(g) moves it past phase 2).
		phase3 += interBfly.S
		if bs%nodes == 0 {
			if err := AllreduceRsAg(inter, interBfly, slice, op); err != nil {
				return err
			}
		} else if err := AllreduceRecDoubling(inter, interBfly, slice, op); err != nil {
			return err
		}
	}
	// Phase 3: intra-node allgather reassembles the full vector.
	return Allgather(Offset(intra, phase3), intraBfly, Permute, slice, buf)
}

// AllreduceReduceBcast is the naive baseline: reduce to rank 0 up the tree
// (rooted there), then broadcast down it.
func AllreduceReduceBcast(c fabric.Comm, tree *core.Tree, buf []int32, op Op) error {
	if tree.Root != 0 {
		return fmt.Errorf("coll: reduce-bcast needs a tree rooted at 0, got root %d", tree.Root)
	}
	out := buf
	if c.Rank() == 0 {
		out = make([]int32, len(buf))
	}
	if err := Reduce(c, tree, buf, out, op); err != nil {
		return err
	}
	if c.Rank() == 0 {
		copy(buf, out)
	}
	return Bcast(Offset(c, tree.Steps), tree, buf)
}
