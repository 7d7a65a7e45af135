package coll

import (
	"fmt"
	"testing"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

func torusCases() []core.Torus {
	return []core.Torus{
		core.MustTorus(4),
		core.MustTorus(2, 2),
		core.MustTorus(4, 4),
		core.MustTorus(2, 4, 8),
		core.MustTorus(4, 4, 4),
		core.MustTorus(8, 2),
	}
}

func TestTorusAllreduce(t *testing.T) {
	for _, tor := range torusCases() {
		p := tor.P()
		n := p * 2
		want := expectedReduce(p, n, OpSum)
		runRanks(t, p, func(c fabric.Comm) error {
			buf := input(c.Rank(), n)
			if err := TorusAllreduce(c, tor, buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("torus %v rank=%d", tor.Dims, c.Rank()), buf, want)
		})
	}
}

func TestTorusMultiportAllreduce(t *testing.T) {
	for _, tor := range []core.Torus{core.MustTorus(4, 4), core.MustTorus(2, 4, 8)} {
		p := tor.P()
		planes := 2 * tor.NDims()
		n := p * planes
		want := expectedReduce(p, n, OpSum)
		runRanks(t, p, func(c fabric.Comm) error {
			buf := input(c.Rank(), n)
			if err := TorusMultiportAllreduce(c, tor, buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("multiport %v rank=%d", tor.Dims, c.Rank()), buf, want)
		})
	}
}

func TestBucketAllreduce(t *testing.T) {
	// Bucket handles non-power-of-two dimensions too.
	cases := append(torusCases(), core.MustTorus(3, 4), core.MustTorus(6), core.MustTorus(3, 5))
	for _, tor := range cases {
		p := tor.P()
		n := p * 2
		want := expectedReduce(p, n, OpSum)
		runRanks(t, p, func(c fabric.Comm) error {
			buf := input(c.Rank(), n)
			if err := BucketAllreduce(c, tor, buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("bucket %v rank=%d", tor.Dims, c.Rank()), buf, want)
		})
	}
}

func TestTorusBcastAndReduce(t *testing.T) {
	for _, tor := range torusCases() {
		p := tor.P()
		n := 10
		for _, root := range []int{0, p - 1, p / 2} {
			want := input(root, n)
			runRanks(t, p, func(c fabric.Comm) error {
				buf := make([]int32, n)
				if c.Rank() == root {
					copy(buf, want)
				}
				if err := TorusBcast(c, tor, root, buf); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("torus-bcast %v root=%d rank=%d", tor.Dims, root, c.Rank()), buf, want)
			})
			wantRed := expectedReduce(p, n, OpSum)
			reduce, _ := Find(TorusRegistry(tor), CReduce, "bine-reduce")
			run, err := reduce.Make(p, root)
			if err != nil {
				t.Fatal(err)
			}
			runRanks(t, p, func(c fabric.Comm) error {
				var out []int32
				if c.Rank() == root {
					out = make([]int32, n)
				}
				if err := run(c, root, input(c.Rank(), n), out, OpSum); err != nil {
					return err
				}
				if c.Rank() != root {
					return nil
				}
				return eq(t, fmt.Sprintf("torus-reduce %v root=%d", tor.Dims, root), out, wantRed)
			})
		}
	}
}

func TestTorusValidation(t *testing.T) {
	tor := core.MustTorus(2, 2)
	runRanks(t, 4, func(c fabric.Comm) error {
		if err := TorusAllreduce(c, tor, make([]int32, 3), OpSum); err == nil {
			return fmt.Errorf("indivisible vector accepted")
		}
		return nil
	})
	runRanks(t, 8, func(c fabric.Comm) error {
		if err := TorusAllreduce(c, tor, make([]int32, 8), OpSum); err == nil {
			return fmt.Errorf("rank count mismatch accepted")
		}
		return nil
	})
	for _, algo := range TorusRegistry(tor) {
		if _, err := algo.Make(8, 0); err == nil {
			t.Errorf("%v/%s: Make accepted 8 ranks for a 4-rank torus", algo.Coll, algo.Name)
		}
	}
}
