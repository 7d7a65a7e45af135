package coll

import (
	"fmt"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Collective enumerates the eight operations of the paper.
type Collective int

const (
	CBcast Collective = iota
	CReduce
	CGather
	CScatter
	CReduceScatter
	CAllgather
	CAllreduce
	CAlltoall
)

// String returns the collective's conventional name.
func (c Collective) String() string {
	switch c {
	case CBcast:
		return "bcast"
	case CReduce:
		return "reduce"
	case CGather:
		return "gather"
	case CScatter:
		return "scatter"
	case CReduceScatter:
		return "reduce-scatter"
	case CAllgather:
		return "allgather"
	case CAllreduce:
		return "allreduce"
	case CAlltoall:
		return "alltoall"
	}
	return fmt.Sprintf("Collective(%d)", int(c))
}

// Collectives lists all eight operations.
var Collectives = []Collective{CBcast, CReduce, CGather, CScatter, CReduceScatter, CAllgather, CAllreduce, CAlltoall}

// InOutLens returns the per-rank input and output vector lengths for a
// collective over p ranks and n total elements (n divisible by p). A zero
// output length means the collective works in place on the input buffer.
func (c Collective) InOutLens(p, n int) (in, out int) {
	bs := n / p
	switch c {
	case CBcast, CAllreduce:
		return n, 0
	case CReduce:
		return n, n
	case CGather:
		return bs, n
	case CScatter:
		return n, bs
	case CReduceScatter:
		return n, bs
	case CAllgather:
		return bs, n
	case CAlltoall:
		return n, n
	}
	panic("coll: unknown collective")
}

// Reduces reports whether the collective folds data (for the cost model's
// compute term).
func (c Collective) Reduces() bool {
	return c == CReduce || c == CReduceScatter || c == CAllreduce
}

// RunFunc executes one algorithm for one rank: in and out follow the
// collective's InOutLens convention, root is the tree root where relevant.
type RunFunc func(c fabric.Comm, root int, in, out []int32, op Op) error

// Algorithm is a registered collective implementation with the metadata the
// experiment harness and cost model need.
type Algorithm struct {
	Name string
	Coll Collective
	// Bine marks the paper's algorithms (as opposed to baselines).
	Bine bool
	// Binomial marks the binomial tree/butterfly baselines used for the
	// head-to-head Tables 3–5.
	Binomial bool
	// Pow2Only restricts the algorithm to power-of-two rank counts.
	Pow2Only bool
	// Overlap is the communication/computation overlap credit in the cost
	// model (block-by-block variants pipeline reductions well).
	Overlap float64
	// CopyFactor scales extra local data movement in vector lengths
	// (permute strategies shuffle the full vector once).
	CopyFactor float64
	// Make builds the per-rank runner. Shared schedule structures (trees,
	// butterflies) are built once per (p, root) and captured by the
	// closure, mirroring how MPI implementations cache communicator state.
	Make func(p, root int) (RunFunc, error)
	// Synth, when non-nil, overrides Pattern's generic zero-buffer walk for
	// schedules whose runtime control flow reads received data (Bruck's
	// negotiated item counts) or whose walk costs far more than it emits
	// (the Bine alltoall's per-step item regrouping): it must compute the
	// exact send pattern a real execution produces from schedule math alone.
	Synth func(p, root, n int) (Synthesizer, error)
}

func treeAlgo(coll Collective, name string, kind core.Kind, bine bool) Algorithm {
	return Algorithm{
		Name: name, Coll: coll, Bine: bine,
		Binomial: kind == core.BinomialDD || kind == core.BinomialDH,
		Make: func(p, root int) (RunFunc, error) {
			t, err := core.NewTree(kind, p, root)
			if err != nil {
				return nil, err
			}
			switch coll {
			case CBcast:
				return func(c fabric.Comm, _ int, in, _ []int32, _ Op) error {
					return Bcast(c, t, in)
				}, nil
			case CReduce:
				return func(c fabric.Comm, _ int, in, out []int32, op Op) error {
					return Reduce(c, t, in, out, op)
				}, nil
			case CGather:
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return Gather(c, t, in, out)
				}, nil
			case CScatter:
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return Scatter(c, t, in, out)
				}, nil
			}
			return nil, fmt.Errorf("coll: no tree algorithm for %v", coll)
		},
	}
}

func butterflyAlgo(coll Collective, name string, kind core.ButterflyKind, strat Strategy, bine bool) Algorithm {
	overlap, copies := 0.0, 0.0
	switch strat {
	case BlockByBlock:
		overlap = 0.8
	case Permute:
		copies = 1
	case TwoTransmissions:
		overlap = 0.2
	}
	return Algorithm{
		Name: name, Coll: coll, Bine: bine,
		Binomial: kind == core.BflyBinomialDH || kind == core.BflyBinomialDD,
		Pow2Only: true, Overlap: overlap, CopyFactor: copies,
		Make: func(p, _ int) (RunFunc, error) {
			b, err := core.NewButterfly(kind, p)
			if err != nil {
				return nil, err
			}
			switch coll {
			case CReduceScatter:
				return func(c fabric.Comm, _ int, in, out []int32, op Op) error {
					return ReduceScatter(c, b, strat, in, out, op)
				}, nil
			case CAllgather:
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return Allgather(c, b, strat, in, out)
				}, nil
			}
			return nil, fmt.Errorf("coll: no butterfly algorithm for %v", coll)
		},
	}
}

// compositeAlgo registers a large-vector broadcast (scatter + allgather) or
// reduce (reduce-scatter + gather) of Sec. 4.5; the tree is rooted at 0
// because composites run on a communicator rotated by the root.
func compositeAlgo(coll Collective, name string, treeKind core.Kind, bflyKind core.ButterflyKind, strat Strategy, bine bool) Algorithm {
	return Algorithm{
		Name: name, Coll: coll, Bine: bine, Binomial: !bine, Pow2Only: true,
		Make: func(p, _ int) (RunFunc, error) {
			tree, err := core.NewTree(treeKind, p, 0)
			if err != nil {
				return nil, err
			}
			bfly, err := core.NewButterfly(bflyKind, p)
			if err != nil {
				return nil, err
			}
			if coll == CBcast {
				return func(c fabric.Comm, root int, in, _ []int32, _ Op) error {
					return BcastScatterAllgather(c, tree, bfly, strat, root, in)
				}, nil
			}
			return func(c fabric.Comm, root int, in, out []int32, op Op) error {
				return ReduceRsGather(c, bfly, tree, strat, root, in, out, op)
			}, nil
		},
	}
}

// foldAlgo registers an Appendix C folded butterfly collective, valid at any
// rank count.
func foldAlgo(coll Collective) Algorithm {
	return Algorithm{
		Name: "bine-fold", Coll: coll, Bine: true,
		Make: func(p, _ int) (RunFunc, error) {
			b, err := FoldButterfly(core.BflyBineDD, p)
			if err != nil {
				return nil, err
			}
			if coll == CReduceScatter {
				return func(c fabric.Comm, _ int, in, out []int32, op Op) error {
					return FoldedReduceScatter(c, b, Send, in, out, op)
				}, nil
			}
			return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
				return FoldedAllgather(c, b, Send, in, out)
			}, nil
		},
	}
}

// Registry returns every registered algorithm, grouped by collective on
// demand via ByCollective. The set mirrors the paper's evaluation matrix:
// each collective has its Bine variant(s), the binomial baselines of
// Open MPI and MPICH, and the additional state-of-the-art algorithms of
// Sec. 5 (ring, Bruck, sparbit, Swing, linear).
func Registry() []Algorithm {
	var algos []Algorithm

	// Broadcast.
	algos = append(algos,
		treeAlgo(CBcast, "bine-tree", core.BineDH, true),
		treeAlgo(CBcast, "binomial-dd", core.BinomialDD, false),
		treeAlgo(CBcast, "binomial-dh", core.BinomialDH, false),
		compositeAlgo(CBcast, "bine-scatter-allgather", core.BineDD, core.BflyBineDD, Send, true),
		compositeAlgo(CBcast, "binomial-scatter-allgather", core.BinomialDH, core.BflyBinomialDH, Permute, false),
		Algorithm{
			Name: "linear", Coll: CBcast,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, _ []int32, _ Op) error {
					return LinearBcast(c, root, in)
				}, nil
			},
		},
		Algorithm{
			Name: "pipeline", Coll: CBcast, Overlap: 0.8,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, _ []int32, _ Op) error {
					return PipelineBcast(c, root, in, DefaultSegments)
				}, nil
			},
		},
		Algorithm{
			Name: "chain", Coll: CBcast,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, _ []int32, _ Op) error {
					return ChainBcast(c, root, in)
				}, nil
			},
		},
	)

	// Reduce.
	algos = append(algos,
		treeAlgo(CReduce, "bine-tree", core.BineDH, true),
		treeAlgo(CReduce, "binomial-dd", core.BinomialDD, false),
		treeAlgo(CReduce, "binomial-dh", core.BinomialDH, false),
		compositeAlgo(CReduce, "bine-rs-gather", core.BineDH, core.BflyBineDD, Send, true),
		compositeAlgo(CReduce, "binomial-rs-gather", core.BinomialDH, core.BflyBinomialDH, Permute, false),
		Algorithm{
			Name: "linear", Coll: CReduce,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, out []int32, op Op) error {
					return LinearReduce(c, root, in, out, op)
				}, nil
			},
		},
	)

	// Gather and scatter.
	algos = append(algos,
		treeAlgo(CGather, "bine-tree", core.BineDH, true),
		treeAlgo(CGather, "binomial-dd", core.BinomialDD, false),
		treeAlgo(CGather, "binomial-dh", core.BinomialDH, false),
		Algorithm{
			Name: "linear", Coll: CGather,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, out []int32, _ Op) error {
					return LinearGather(c, root, in, out)
				}, nil
			},
		},
		treeAlgo(CScatter, "bine-tree", core.BineDH, true),
		treeAlgo(CScatter, "binomial-dd", core.BinomialDD, false),
		treeAlgo(CScatter, "binomial-dh", core.BinomialDH, false),
		Algorithm{
			Name: "linear", Coll: CScatter,
			Make: func(p, root int) (RunFunc, error) {
				return func(c fabric.Comm, root int, in, out []int32, _ Op) error {
					return LinearScatter(c, root, in, out)
				}, nil
			},
		},
	)

	// Reduce-scatter.
	algos = append(algos,
		butterflyAlgo(CReduceScatter, "bine-permute", core.BflyBineDD, Permute, true),
		butterflyAlgo(CReduceScatter, "bine-send", core.BflyBineDD, Send, true),
		butterflyAlgo(CReduceScatter, "bine-block", core.BflyBineDD, BlockByBlock, true),
		butterflyAlgo(CReduceScatter, "bine-two-trans", core.BflyBineDH, TwoTransmissions, true),
		butterflyAlgo(CReduceScatter, "recursive-halving", core.BflyBinomialDH, Permute, false),
		butterflyAlgo(CReduceScatter, "swing", core.BflySwing, BlockByBlock, false),
		Algorithm{
			Name: "ring", Coll: CReduceScatter,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, op Op) error {
					return RingReduceScatter(c, in, out, op)
				}, nil
			},
		},
		foldAlgo(CReduceScatter),
	)

	// Allgather.
	algos = append(algos,
		butterflyAlgo(CAllgather, "bine-permute", core.BflyBineDD, Permute, true),
		butterflyAlgo(CAllgather, "bine-send", core.BflyBineDD, Send, true),
		butterflyAlgo(CAllgather, "bine-block", core.BflyBineDD, BlockByBlock, true),
		butterflyAlgo(CAllgather, "bine-two-trans", core.BflyBineDH, TwoTransmissions, true),
		butterflyAlgo(CAllgather, "recursive-doubling", core.BflyBinomialDH, Permute, false),
		butterflyAlgo(CAllgather, "swing", core.BflySwing, BlockByBlock, false),
		Algorithm{
			Name: "ring", Coll: CAllgather,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return RingAllgather(c, in, out)
				}, nil
			},
		},
		Algorithm{
			Name: "bruck", Coll: CAllgather,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return BruckAllgather(c, in, out)
				}, nil
			},
		},
		Algorithm{
			Name: "sparbit", Coll: CAllgather, Pow2Only: true, Overlap: 0.8,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return SparbitAllgather(c, in, out)
				}, nil
			},
		},
		foldAlgo(CAllgather),
	)

	// Allreduce.
	mkAllreduce := func(name string, bine, binomial, pow2 bool, overlap float64,
		run func(p int) (func(c fabric.Comm, buf []int32, op Op) error, error)) Algorithm {
		return Algorithm{
			Name: name, Coll: CAllreduce, Bine: bine, Binomial: binomial,
			Pow2Only: pow2, Overlap: overlap,
			Make: func(p, _ int) (RunFunc, error) {
				inner, err := run(p)
				if err != nil {
					return nil, err
				}
				return func(c fabric.Comm, _ int, in, _ []int32, op Op) error {
					return inner(c, in, op)
				}, nil
			},
		}
	}
	algos = append(algos,
		mkAllreduce("bine-lat", true, false, true, 0, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := core.NewButterfly(core.BflyBineDD, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return AllreduceRecDoubling(c, b, buf, op)
			}, nil
		}),
		mkAllreduce("bine-bw", true, false, true, 0.3, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := core.NewButterfly(core.BflyBineDD, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return AllreduceRsAg(c, b, buf, op)
			}, nil
		}),
		mkAllreduce("recursive-doubling", false, true, true, 0, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := core.NewButterfly(core.BflyBinomialDD, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return AllreduceRecDoubling(c, b, buf, op)
			}, nil
		}),
		mkAllreduce("rabenseifner", false, true, true, 0, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := core.NewButterfly(core.BflyBinomialDH, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return AllreduceRsAg(c, b, buf, op)
			}, nil
		}),
		mkAllreduce("ring", false, false, false, 0.6, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			return RingAllreduce, nil
		}),
		mkAllreduce("swing", false, false, true, 0.8, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := core.NewButterfly(core.BflySwing, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				bs := len(buf) / p
				own := make([]int32, bs)
				if err := ReduceScatter(c, b, BlockByBlock, buf, own, op); err != nil {
					return err
				}
				return Allgather(Offset(c, b.S), b, BlockByBlock, own, buf)
			}, nil
		}),
		mkAllreduce("reduce-bcast", false, false, false, 0, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			tree, err := core.NewTree(core.BinomialDH, p, 0)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return AllreduceReduceBcast(c, tree, buf, op)
			}, nil
		}),
		mkAllreduce("bine-fold", true, false, false, 0.3, func(p int) (func(fabric.Comm, []int32, Op) error, error) {
			b, err := FoldButterfly(core.BflyBineDD, p)
			if err != nil {
				return nil, err
			}
			return func(c fabric.Comm, buf []int32, op Op) error {
				return FoldedAllreduce(c, b, buf, op)
			}, nil
		}),
	)

	// Alltoall.
	algos = append(algos,
		Algorithm{
			Name: "bine", Coll: CAlltoall, Bine: true, Pow2Only: true,
			Make: func(p, _ int) (RunFunc, error) {
				b, err := core.NewButterfly(core.BflyBineDD, p)
				if err != nil {
					return nil, err
				}
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return BineAlltoall(c, b, in, out)
				}, nil
			},
			Synth: bineAlltoallPattern,
		},
		Algorithm{
			Name: "bruck", Coll: CAlltoall, Binomial: true,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return BruckAlltoall(c, in, out)
				}, nil
			},
			Synth: bruckAlltoallPattern,
		},
		Algorithm{
			Name: "pairwise", Coll: CAlltoall,
			Make: func(p, _ int) (RunFunc, error) {
				return func(c fabric.Comm, _ int, in, out []int32, _ Op) error {
					return PairwiseAlltoall(c, in, out)
				}, nil
			},
		},
	)

	return algos
}

// ByCollective filters the registry.
func ByCollective(algos []Algorithm, c Collective) []Algorithm {
	var out []Algorithm
	for _, a := range algos {
		if a.Coll == c {
			out = append(out, a)
		}
	}
	return out
}

// Find returns the named algorithm for a collective.
func Find(algos []Algorithm, c Collective, name string) (Algorithm, bool) {
	for _, a := range algos {
		if a.Coll == c && a.Name == name {
			return a, true
		}
	}
	return Algorithm{}, false
}
