// Package binetrees is a from-scratch Go implementation of Bine (binomial
// negabinary) trees and butterflies — the collective-communication
// algorithms of De Sensi et al., "Bine Trees: Enhancing Collective
// Operations by Optimizing Communication Locality" (SC '25) — together with
// the runtime, baselines, network models and experiment harness needed to
// reproduce the paper's evaluation.
//
// The public API is a small façade over the internal packages: a Cluster
// hosts p ranks over an in-process or TCP fabric, each rank gets a Rank
// handle inside Run, and the eight collectives of the paper are methods on
// Rank. Defaults follow the paper's recommendations (Bine algorithms with
// the small/large-vector switch of Sec. 4); every baseline is available by
// name through WithAlgorithm.
//
//	cl := binetrees.NewCluster(16)
//	defer cl.Close()
//	err := cl.Run(func(r *binetrees.Rank) error {
//	    buf := make([]int32, 1<<16)
//	    // ... fill buf ...
//	    return r.Allreduce(buf)
//	})
package binetrees

import (
	"fmt"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Op is an elementwise reduction operator.
type Op = coll.Op

// Built-in reduction operators.
var (
	OpSum  = coll.OpSum
	OpMax  = coll.OpMax
	OpMin  = coll.OpMin
	OpProd = coll.OpProd
	OpBXor = coll.OpBXor
)

// Cluster hosts p communicating ranks.
type Cluster struct {
	fab fabric.Fabric
	rec *fabric.Recorder
}

// NewCluster creates an in-process cluster of p ranks.
func NewCluster(p int) *Cluster {
	return &Cluster{fab: fabric.NewMem(p)}
}

// NewTCPCluster creates a cluster whose ranks exchange length-prefixed
// frames over loopback TCP sockets.
func NewTCPCluster(p int) (*Cluster, error) {
	f, err := fabric.NewTCP(p)
	if err != nil {
		return nil, err
	}
	return &Cluster{fab: f}, nil
}

// EnableRecording wraps the cluster's transport so every message is
// captured; Trace returns the recording. Must be called before Run.
func (cl *Cluster) EnableRecording() {
	if cl.rec == nil {
		cl.rec = fabric.NewRecorder(cl.fab)
	}
}

// Trace returns the communication trace recorded so far (nil when
// recording was not enabled).
func (cl *Cluster) Trace() *fabric.Trace {
	if cl.rec == nil {
		return nil
	}
	return cl.rec.Trace()
}

// Size returns the number of ranks.
func (cl *Cluster) Size() int { return cl.fab.Size() }

// Close releases the transport.
func (cl *Cluster) Close() error { return cl.fab.Close() }

// Run drives fn concurrently on every rank and returns the first error.
func (cl *Cluster) Run(fn func(r *Rank) error) error {
	f := cl.fab
	if cl.rec != nil {
		f = cl.rec
	}
	return fabric.Run(f, func(c fabric.Comm) error {
		return fn(&Rank{c: c})
	})
}

// Rank is one rank's handle inside Cluster.Run.
type Rank struct {
	c   fabric.Comm
	seq int // tag window sequencing across successive collectives
}

// ID returns the rank identifier in [0, Size).
func (r *Rank) ID() int { return r.c.Rank() }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.c.Size() }

type options struct {
	root      int
	op        Op
	algorithm string
}

// Option configures one collective call.
type Option func(*options)

// WithRoot selects the root rank of rooted collectives (default 0).
func WithRoot(root int) Option { return func(o *options) { o.root = root } }

// WithOp selects the reduction operator (default OpSum).
func WithOp(op Op) Option { return func(o *options) { o.op = op } }

// WithAlgorithm forces a registered algorithm by name (see Algorithms);
// default "" picks the paper's Bine algorithm with the small/large-vector
// switch of Sec. 4.
func WithAlgorithm(name string) Option { return func(o *options) { o.algorithm = name } }

// Algorithms lists the registered algorithm names for a collective.
func Algorithms(c Collective) []string {
	var out []string
	for _, a := range coll.ByCollective(coll.Registry(), c) {
		out = append(out, a.Name)
	}
	return out
}

// Collective identifies one of the paper's eight operations.
type Collective = coll.Collective

// The eight collectives.
const (
	Bcast         = coll.CBcast
	Reduce        = coll.CReduce
	Gather        = coll.CGather
	Scatter       = coll.CScatter
	ReduceScatter = coll.CReduceScatter
	Allgather     = coll.CAllgather
	Allreduce     = coll.CAllreduce
	Alltoall      = coll.CAlltoall
)

func (r *Rank) prepare(opts []Option) (options, fabric.Comm) {
	o := options{op: OpSum}
	for _, f := range opts {
		f(&o)
	}
	// Each collective invocation gets its own tag window so back-to-back
	// collectives on the same cluster never confuse messages.
	c := coll.Offset(r.c, r.seq<<16)
	r.seq++
	return o, c
}

// pickDefault returns the paper's recommended Bine algorithm for the
// collective, vector size and rank count (the small/large switch of
// Sec. 4.4–4.5).
func pickDefault(c Collective, p, n int) string {
	_, pow2 := core.Log2(p)
	large := n >= 8*p && n%p == 0 && pow2
	switch c {
	case Bcast:
		if large {
			return "bine-scatter-allgather"
		}
		return "bine-tree"
	case Reduce:
		if large {
			return "bine-rs-gather"
		}
		return "bine-tree"
	case Gather, Scatter:
		return "bine-tree"
	case ReduceScatter:
		if !pow2 {
			return "bine-fold"
		}
		return "bine-send"
	case Allgather:
		if !pow2 {
			return "bine-fold"
		}
		return "bine-send"
	case Allreduce:
		if !pow2 {
			return "bine-fold"
		}
		if large {
			return "bine-bw"
		}
		return "bine-lat"
	case Alltoall:
		if pow2 {
			return "bine"
		}
		return "bruck"
	}
	return ""
}

func (r *Rank) dispatch(collective Collective, n int, in, out []int32, opts []Option) error {
	o, c := r.prepare(opts)
	name := o.algorithm
	if name == "" {
		name = pickDefault(collective, r.Size(), n)
	}
	algo, ok := coll.Find(coll.Registry(), collective, name)
	if !ok {
		return fmt.Errorf("binetrees: no %v algorithm named %q", collective, name)
	}
	run, err := algo.Make(r.Size(), o.root)
	if err != nil {
		return fmt.Errorf("binetrees: %v/%s: %w", collective, name, err)
	}
	return run(c, o.root, in, out, o.op)
}

// Bcast broadcasts the root's buf to every rank in place.
func (r *Rank) Bcast(buf []int32, opts ...Option) error {
	return r.dispatch(Bcast, len(buf), buf, nil, opts)
}

// Reduce folds every rank's in into out at the root (out may be nil
// elsewhere).
func (r *Rank) Reduce(in, out []int32, opts ...Option) error {
	return r.dispatch(Reduce, len(in), in, out, opts)
}

// Gather collects each rank's equal-size in block into out at the root
// (rank i's block lands at position i).
func (r *Rank) Gather(in, out []int32, opts ...Option) error {
	return r.dispatch(Gather, len(in)*r.Size(), in, out, opts)
}

// Scatter distributes the root's in vector; each rank receives its block in
// out.
func (r *Rank) Scatter(in, out []int32, opts ...Option) error {
	return r.dispatch(Scatter, len(out)*r.Size(), in, out, opts)
}

// ReduceScatter reduces in across ranks and leaves block ID() in out.
func (r *Rank) ReduceScatter(in, out []int32, opts ...Option) error {
	return r.dispatch(ReduceScatter, len(in), in, out, opts)
}

// Allgather distributes every rank's in block to all ranks' out vectors.
func (r *Rank) Allgather(in, out []int32, opts ...Option) error {
	return r.dispatch(Allgather, len(out), in, out, opts)
}

// Allreduce reduces buf across all ranks in place.
func (r *Rank) Allreduce(buf []int32, opts ...Option) error {
	return r.dispatch(Allreduce, len(buf), buf, nil, opts)
}

// Alltoall sends block i of in to rank i; out collects the blocks received
// from every rank in rank order.
func (r *Rank) Alltoall(in, out []int32, opts ...Option) error {
	return r.dispatch(Alltoall, len(in), in, out, opts)
}
