package coll

import (
	"fmt"
	"testing"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// foldBfly is the shared inner butterfly a folded collective over p ranks
// runs on.
func foldBfly(t *testing.T, p int) *core.Butterfly {
	t.Helper()
	b, err := FoldButterfly(core.BflyBineDD, p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFoldedAllreduceAnyP(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6, 7, 9, 12, 16, 21, 33} {
		b := foldBfly(t, p)
		for _, n := range []int{3, 4 * p} {
			want := expectedReduce(p, n, OpSum)
			runRanks(t, p, func(c fabric.Comm) error {
				buf := input(c.Rank(), n)
				if err := FoldedAllreduce(c, b, buf, OpSum); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("fold-allreduce p=%d n=%d rank=%d", p, n, c.Rank()), buf, want)
			})
		}
	}
}

func TestFoldedReduceScatterAnyP(t *testing.T) {
	for _, p := range []int{2, 3, 5, 6, 8, 12, 20} {
		bs := 3
		n := p * bs
		want := expectedReduce(p, n, OpSum)
		b := foldBfly(t, p)
		runRanks(t, p, func(c fabric.Comm) error {
			out := make([]int32, bs)
			if err := FoldedReduceScatter(c, b, Send, input(c.Rank(), n), out, OpSum); err != nil {
				return err
			}
			r := c.Rank()
			return eq(t, fmt.Sprintf("fold-rs p=%d rank=%d", p, r), out, want[r*bs:(r+1)*bs])
		})
	}
}

func TestFoldedAllgatherAnyP(t *testing.T) {
	for _, p := range []int{2, 3, 5, 6, 8, 12, 20} {
		bs := 4
		full := make([]int32, p*bs)
		for r := 0; r < p; r++ {
			copy(full[r*bs:], input(r, bs))
		}
		b := foldBfly(t, p)
		runRanks(t, p, func(c fabric.Comm) error {
			out := make([]int32, p*bs)
			if err := FoldedAllgather(c, b, Send, input(c.Rank(), bs), out); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("fold-ag p=%d rank=%d", p, c.Rank()), out, full)
		})
	}
}

func TestFoldedVolumeOverhead(t *testing.T) {
	// Appendix C notes the fold "doubles the total communication volume"
	// relative to an even-p execution; verify the folded ranks really pay
	// the extra full-vector exchange.
	p, n := 6, 12
	b := foldBfly(t, p)
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	if err := fabric.Run(rec, func(c fabric.Comm) error {
		return FoldedAllreduce(c, b, make([]int32, n), OpSum)
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	// Two folded ranks send n pre-fold and receive n post-unfold: 4n extra
	// elements over the inner 4-rank allreduce.
	foldElems := int64(0)
	for s := 0; s < tr.NumSteps(); s++ {
		for i, hi := tr.StepBounds(s); i < hi; i++ {
			if tr.From(i) >= 4 || tr.To(i) >= 4 {
				foldElems += int64(tr.Elems(i))
			}
		}
	}
	if foldElems != 4*int64(n) {
		t.Fatalf("fold volume %d, want %d", foldElems, 4*n)
	}
}

func TestPipelineBcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 16} {
		for _, segs := range []int{1, 3, 16} {
			for _, root := range []int{0, p - 1} {
				n := 24
				want := input(root, n)
				runRanks(t, p, func(c fabric.Comm) error {
					buf := make([]int32, n)
					if c.Rank() == root {
						copy(buf, want)
					}
					if err := PipelineBcast(c, root, buf, segs); err != nil {
						return err
					}
					return eq(t, fmt.Sprintf("pipeline p=%d segs=%d root=%d", p, segs, root), buf, want)
				})
			}
		}
	}
	// Invalid segment counts fail.
	runRanks(t, 2, func(c fabric.Comm) error {
		if err := PipelineBcast(c, 0, make([]int32, 4), 0); err == nil {
			return fmt.Errorf("zero segments accepted")
		}
		return nil
	})
}

func TestPipelineWavefrontOverlaps(t *testing.T) {
	// The pipelining signature: with s segments the trace has p−2+s steps
	// and interior steps carry multiple concurrent transfers.
	p, n, segs := 8, 64, 4
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	if err := fabric.Run(rec, func(c fabric.Comm) error {
		return PipelineBcast(c, 0, make([]int32, n), segs)
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr.NumSteps() != p-2+segs {
		t.Fatalf("%d steps, want %d", tr.NumSteps(), p-2+segs)
	}
	multi := 0
	for s := 0; s < tr.NumSteps(); s++ {
		if lo, hi := tr.StepBounds(s); hi-lo > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no overlapping wavefront steps")
	}
}
