package coll

import (
	"fmt"
	"testing"
	"time"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// tagComm is one rank's tag-checking endpoint: it records the (to, step,
// sub) tag of every send and fails the second send under a tag. Over an
// inner endpoint it forwards both directions; without one its receives
// complete at once, as on the synthesis endpoint.
type tagComm struct {
	inner      fabric.Comm
	rank, size int
	tags       map[[3]int]bool
	steps      map[int]bool
}

func newTagComm(inner fabric.Comm, rank, size int) *tagComm {
	return &tagComm{inner: inner, rank: rank, size: size, tags: map[[3]int]bool{}, steps: map[int]bool{}}
}

func (c *tagComm) Rank() int { return c.rank }
func (c *tagComm) Size() int { return c.size }

func (c *tagComm) Send(to, step, sub int, data []int32) error {
	tag := [3]int{to, step, sub}
	if c.tags[tag] {
		return fmt.Errorf("rank %d sends twice under (to=%d, step=%d, sub=%d)", c.rank, to, step, sub)
	}
	c.tags[tag] = true
	c.steps[step] = true
	if c.inner == nil {
		return nil
	}
	return c.inner.Send(to, step, sub, data)
}

func (c *tagComm) Recv(from, step, sub int, buf []int32) error {
	if c.inner == nil {
		return nil
	}
	return c.inner.Recv(from, step, sub, buf)
}

// walkTags walks the given ranks of a p-rank schedule through tagComms and
// returns each rank's distinct send steps; the first reused tag fails t.
func walkTags(t *testing.T, name string, p int, ranks []int, run func(c fabric.Comm) error) []int {
	t.Helper()
	steps := make([]int, len(ranks))
	for i, r := range ranks {
		c := newTagComm(nil, r, p)
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
// either, and the cost model price two phases as one step. Each registry
// algorithm runs its Make body — the schedule a recording executes, not its
// synthesis, so a plan cannot hide an alias — on the goroutine
// fabric, because Bruck's alltoall reads the counts it receives.
func TestPhasesDoNotAlias(t *testing.T) {
	for _, algo := range Registry() {
		for _, p := range []int{2, 3, 5, 8, 12, 16, 64} {
			if _, pow2 := core.Log2(p); algo.Pow2Only && !pow2 {
				continue
			}
			name := fmt.Sprintf("%v/%s p=%d", algo.Coll, algo.Name, p)
			root := p / 3
			run, err := algo.Make(p, root)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inLen, outLen := algo.Coll.InOutLens(p, 2*p)
			f := fabric.NewMem(p)
			f.SetTimeout(5 * time.Second) // a failing rank leaves its peers waiting
			if err := fabric.Run(f, func(c fabric.Comm) error {
				return run(newTagComm(c, c.Rank(), p), root, make([]int32, inLen), make([]int32, outLen), OpSum)
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f.Close()
		}
	}
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {8, 2}} {
		tor := core.MustTorus(dims...)
		p, n, root := tor.P(), tor.P()*2*tor.NDims(), tor.P()/3
		for _, algo := range TorusRegistry(tor) {
			run, err := algo.Make(p, root)
			if err != nil {
				t.Fatalf("%v/%s %v: %v", algo.Coll, algo.Name, dims, err)
			}
			inLen, outLen := algo.Coll.InOutLens(p, n)
			walkTags(t, fmt.Sprintf("%v/%s %v", algo.Coll, algo.Name, dims), p, allRanks(p), func(c fabric.Comm) error {
				return run(c, root, make([]int32, inLen), make([]int32, outLen), OpSum)
			})
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
