package coll

import (
	"fmt"
	"testing"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// tagComm is one rank's walking endpoint: it records the (to, step, sub) tag
// of every send and fails the second send under a tag, and its receives
// complete at once, as on the synthesis endpoint.
type tagComm struct {
	rank, size int
	tags       map[[3]int]bool
	steps      map[int]bool
}

func (c *tagComm) Rank() int { return c.rank }
func (c *tagComm) Size() int { return c.size }

func (c *tagComm) Send(to, step, sub int, _ []int32) error {
	tag := [3]int{to, step, sub}
	if c.tags[tag] {
		return fmt.Errorf("rank %d sends twice under (to=%d, step=%d, sub=%d)", c.rank, to, step, sub)
	}
	c.tags[tag] = true
	c.steps[step] = true
	return nil
}

func (c *tagComm) Recv(int, int, int, []int32) error { return nil }

// walkTags walks the given ranks of a p-rank schedule through tagComms and
// returns each rank's distinct send steps; the first reused tag fails t.
func walkTags(t *testing.T, name string, p int, ranks []int, run func(c fabric.Comm) error) []int {
	t.Helper()
	steps := make([]int, len(ranks))
	for i, r := range ranks {
		c := &tagComm{rank: r, size: p, tags: map[[3]int]bool{}, steps: map[int]bool{}}
		if err := run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		steps[i] = len(c.steps)
	}
	return steps
}

func allRanks(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPhasesDoNotAlias holds every composite to its phase arithmetic: each
// phase starts where the phases before it end, so no sender ever sends two
// messages under one (to, step, sub) tag — which would let a receive take
// either, and the cost model price two phases as one step.
func TestPhasesDoNotAlias(t *testing.T) {
	for _, algo := range Registry() {
		for _, p := range []int{2, 3, 5, 8, 12, 16, 64} {
			if _, pow2 := core.Log2(p); algo.Pow2Only && !pow2 {
				continue
			}
			name := fmt.Sprintf("%v/%s p=%d", algo.Coll, algo.Name, p)
			s, err := algo.Pattern(p, p/3, 2*p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			walkTags(t, name, p, allRanks(p), func(c fabric.Comm) error { return s.Walk(c.Rank(), c) })
		}
	}
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {8, 2}} {
		tor := core.MustTorus(dims...)
		p, n := tor.P(), tor.P()*2*tor.NDims()
		for name, run := range map[string]func(c fabric.Comm) error{
			"torus allreduce": func(c fabric.Comm) error { return TorusAllreduce(c, tor, make([]int32, n), OpSum) },
			"torus multiport": func(c fabric.Comm) error { return TorusMultiportAllreduce(c, tor, make([]int32, n), OpSum) },
			"bucket":          func(c fabric.Comm) error { return BucketAllreduce(c, tor, make([]int32, n), OpSum) },
			"torus bcast":     func(c fabric.Comm) error { return TorusBcast(c, tor, core.BineDH, p/3, make([]int32, n)) },
			"torus reduce": func(c fabric.Comm) error {
				return TorusReduce(c, tor, core.BineDH, p/3, make([]int32, n), make([]int32, n), OpSum)
			},
		} {
			walkTags(t, fmt.Sprintf("%s %v", name, dims), p, allRanks(p), run)
		}
	}
	for _, p := range []int{16, 64} {
		walkTags(t, fmt.Sprintf("hierarchical allreduce p=%d", p), p, allRanks(p), func(c fabric.Comm) error {
			return HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 4*p), OpSum)
		})
	}
	// Two ranks of a ring allreduce past the width a fixed 4096-step phase
	// window holds: each sends once per step, on 2(p−1) distinct steps.
	const p = 4098
	steps := walkTags(t, "ring allreduce p=4098", p, []int{0, p - 1}, func(c fabric.Comm) error {
		return RingAllreduce(c, make([]int32, p), OpSum)
	})
	for i, n := range steps {
		if n != 2*(p-1) {
			t.Errorf("ring allreduce p=%d: rank %d sends on %d distinct steps, want %d", p, []int{0, p - 1}[i], n, 2*(p-1))
		}
	}
}
