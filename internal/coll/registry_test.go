package coll

import (
	"fmt"
	"slices"
	"testing"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// TestRegistryAllAlgorithmsCorrect executes every registered algorithm on
// several rank counts and verifies its output against locally computed
// expected results.
func TestRegistryAllAlgorithmsCorrect(t *testing.T) {
	checkRegistry(t, func(p int) fabric.Fabric { return fabric.NewMem(p) }, []int{2, 4, 16}, []int{6, 12})
}

// TestCollectivesOverTCP runs the whole registry once more over real
// sockets: the same collective code must run unchanged on either transport.
func TestCollectivesOverTCP(t *testing.T) {
	checkRegistry(t, func(p int) fabric.Fabric {
		f, err := fabric.NewTCP(p)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}, []int{8}, []int{6})
}

// checkRegistry runs every registered algorithm on fabrics from mk, at the
// pow2 rank counts and, unless the algorithm is Pow2Only, the other ones too.
func checkRegistry(t *testing.T, mk func(p int) fabric.Fabric, pow2, other []int) {
	algos := Registry()
	if len(algos) < 30 {
		t.Fatalf("registry has only %d algorithms", len(algos))
	}
	for _, algo := range algos {
		counts := pow2
		if !algo.Pow2Only {
			counts = slices.Concat(pow2, other)
		}
		for _, p := range counts {
			bs := 2
			n := p * bs
			root := p / 3
			run, err := algo.Make(p, root)
			if err != nil {
				t.Fatalf("%v/%s p=%d: %v", algo.Coll, algo.Name, p, err)
			}
			full := make([]int32, n)
			for r := 0; r < p; r++ {
				copy(full[r*bs:], input(r, bs))
			}
			wantRed := expectedReduce(p, n, OpSum)
			tag := fmt.Sprintf("%v/%s p=%d", algo.Coll, algo.Name, p)
			runRanksOn(t, mk(p), func(c fabric.Comm) error {
				r := c.Rank()
				inLen, outLen := algo.Coll.InOutLens(p, n)
				in := make([]int32, inLen)
				var out []int32
				if outLen > 0 {
					out = make([]int32, outLen)
				}
				switch algo.Coll {
				case CBcast:
					if r == root {
						copy(in, input(root, n))
					}
				case CGather, CAllgather:
					copy(in, input(r, bs))
				default:
					copy(in, input(r, n))
				}
				if err := run(c, root, in, out, OpSum); err != nil {
					return err
				}
				switch algo.Coll {
				case CBcast:
					return eq(t, tag, in, input(root, n))
				case CReduce:
					if r == root {
						return eq(t, tag, out, wantRed)
					}
				case CGather:
					if r == root {
						return eq(t, tag, out, full)
					}
				case CScatter:
					return eq(t, tag, out, input(root, n)[r*bs:(r+1)*bs])
				case CReduceScatter:
					return eq(t, tag, out, wantRed[r*bs:(r+1)*bs])
				case CAllgather:
					return eq(t, tag, out, full)
				case CAllreduce:
					return eq(t, tag, in, wantRed)
				case CAlltoall:
					return eq(t, tag, out, alltoallExpected(p, bs, r))
				}
				return nil
			})
		}
	}
}

// TestRegistryScatterInput fixes the scatter convention: the root's input is
// the full vector.
func TestRegistryScatterInput(t *testing.T) {
	algos := Registry()
	for _, name := range []string{"bine-tree", "binomial-dd", "linear"} {
		algo, ok := Find(algos, CScatter, name)
		if !ok {
			t.Fatalf("scatter/%s not registered", name)
		}
		p, bs := 8, 3
		root := 2
		run, err := algo.Make(p, root)
		if err != nil {
			t.Fatal(err)
		}
		fullIn := input(root, p*bs)
		runRanks(t, p, func(c fabric.Comm) error {
			in := make([]int32, p*bs)
			if c.Rank() == root {
				copy(in, fullIn)
			}
			out := make([]int32, bs)
			if err := run(c, root, in, out, OpSum); err != nil {
				return err
			}
			return eq(t, name, out, fullIn[c.Rank()*bs:(c.Rank()+1)*bs])
		})
	}
}

// TestRegistryCoverage checks every collective has at least one Bine
// algorithm and one binomial baseline, as the paper's tables require.
func TestRegistryCoverage(t *testing.T) {
	algos := Registry()
	for _, c := range Collectives {
		perColl := ByCollective(algos, c)
		var bine, binomial int
		for _, a := range perColl {
			if a.Bine {
				bine++
			}
			if a.Binomial {
				binomial++
			}
			if a.Bine && a.Binomial {
				t.Errorf("%v/%s marked both bine and binomial", c, a.Name)
			}
		}
		if bine == 0 {
			t.Errorf("%v has no Bine algorithm", c)
		}
		if binomial == 0 {
			t.Errorf("%v has no binomial baseline", c)
		}
	}
	if _, ok := Find(algos, CAllreduce, "swing"); !ok {
		t.Error("swing allreduce missing")
	}
	if _, ok := Find(algos, CAllreduce, "no-such"); ok {
		t.Error("phantom algorithm found")
	}
}

// TestTreeAlgoKindsDiffer pins the Fig. 1 distinction: the two binomial
// broadcast baselines produce different traffic patterns.
func TestTreeAlgoKindsDiffer(t *testing.T) {
	dd := core.MustTree(core.BinomialDD, 8, 0)
	dh := core.MustTree(core.BinomialDH, 8, 0)
	if dd.Parent[1] == dh.Parent[1] && dd.JoinStep[4] == dh.JoinStep[4] {
		t.Error("distance-doubling and distance-halving trees coincide")
	}
}
