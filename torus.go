package binetrees

import (
	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/netsim"
)

// Torus collectives (Appendix D of the paper): ranks are treated as
// coordinates of a multidimensional torus and every transfer moves along a
// single dimension.

// TorusAllreduce runs the torus-optimized Bine allreduce over a torus of
// the given dimensions (the product must equal the cluster size; every
// dimension must be a power of two).
func (r *Rank) TorusAllreduce(dims []int, buf []int32, opts ...Option) error {
	o, c := r.prepare(opts)
	tor, err := core.NewTorus(dims...)
	if err != nil {
		return err
	}
	return coll.TorusAllreduce(c, tor, buf, o.op)
}

// TorusMultiportAllreduce runs 2·D concurrent Bine allreduces, one per
// torus direction, on equal slices of buf (Appendix D.4; one NIC per
// direction, as on Fugaku). len(buf) must be divisible by 2·D·size.
func (r *Rank) TorusMultiportAllreduce(dims []int, buf []int32, opts ...Option) error {
	o, c := r.prepare(opts)
	tor, err := core.NewTorus(dims...)
	if err != nil {
		return err
	}
	return coll.TorusMultiportAllreduce(c, tor, buf, o.op)
}

// BucketAllreduce runs the multi-dimensional-ring Bucket baseline on the
// torus (works for any dimension sizes).
func (r *Rank) BucketAllreduce(dims []int, buf []int32, opts ...Option) error {
	o, c := r.prepare(opts)
	tor, err := core.NewTorus(dims...)
	if err != nil {
		return err
	}
	return coll.BucketAllreduce(c, tor, buf, o.op)
}

// TorusBcast broadcasts along one torus dimension at a time using
// per-dimension Bine trees.
func (r *Rank) TorusBcast(dims []int, buf []int32, opts ...Option) error {
	o, c := r.prepare(opts)
	tor, err := core.NewTorus(dims...)
	if err != nil {
		return err
	}
	return coll.TorusBcast(c, tor, core.BineDH, o.root, buf)
}

// Trace is a recorded communication trace (see Cluster.EnableRecording).
type Trace = fabric.Trace

// GlobalTraffic returns the bytes (in vector elements) a recorded trace
// moves across group boundaries, given a rank → group map — the paper's
// headline locality metric.
func GlobalTraffic(tr *Trace, groupOf []int) (global, total int64) {
	g := make([]int, tr.P) // ranks beyond groupOf fall in group 0
	copy(g, groupOf)
	return netsim.GlobalTraffic(tr, g)
}
