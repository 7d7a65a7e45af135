package coll

import (
	"fmt"
	"testing"
	"time"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// input deterministically generates rank r's n-element input vector.
func input(r, n int) []int32 {
	v := make([]int32, n)
	for i := range v {
		v[i] = int32((r+1)*1000003%997 + i*31 + r*7)
	}
	return v
}

// expectedReduce returns the elementwise reduction of all ranks' inputs.
func expectedReduce(p, n int, op Op) []int32 {
	acc := input(0, n)
	for r := 1; r < p; r++ {
		op.Apply(acc, input(r, n))
	}
	return acc
}

// runRanks executes fn for every rank of a fresh Mem fabric and fails the
// test on any error.
func runRanks(t *testing.T, p int, fn func(c fabric.Comm) error) {
	t.Helper()
	runRanksOn(t, fabric.NewMem(p), fn)
}

// runRanksOn is runRanks on a fabric of the caller's choosing; it closes f.
func runRanksOn(t *testing.T, f fabric.Fabric, fn func(c fabric.Comm) error) {
	t.Helper()
	defer f.Close()
	if err := fabric.Run(f, fn); err != nil {
		t.Fatal(err)
	}
}

func eq(t *testing.T, tag string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d is %d, want %d", tag, i, got[i], want[i])
		}
	}
	return nil
}

var treeKinds = []core.Kind{core.BineDH, core.BineDD, core.BinomialDD, core.BinomialDH}

func TestBcastAllKindsAllRoots(t *testing.T) {
	for _, kind := range treeKinds {
		for _, p := range []int{1, 2, 4, 8, 16, 64, 6, 10, 12, 7, 9} {
			roots := []int{0}
			if p > 1 {
				roots = append(roots, 1, p-1)
			}
			for _, root := range roots {
				tree, err := core.NewTree(kind, p, root)
				if err != nil {
					t.Fatal(err)
				}
				n := 33
				want := input(root, n)
				runRanks(t, p, func(c fabric.Comm) error {
					buf := make([]int32, n)
					if c.Rank() == root {
						copy(buf, want)
					}
					if err := Bcast(c, tree, buf); err != nil {
						return err
					}
					return eq(t, fmt.Sprintf("%v p=%d root=%d rank=%d", kind, p, root, c.Rank()), buf, want)
				})
			}
		}
	}
}

func TestReduceAllKinds(t *testing.T) {
	ops := []Op{OpSum, OpMax, OpBXor}
	for _, kind := range treeKinds {
		for _, p := range []int{1, 2, 8, 16, 6, 12, 9} {
			for _, op := range ops {
				tree, err := core.NewTree(kind, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				n := 17
				want := expectedReduce(p, n, op)
				runRanks(t, p, func(c fabric.Comm) error {
					in := input(c.Rank(), n)
					var out []int32
					if c.Rank() == 0 {
						out = make([]int32, n)
					}
					if err := Reduce(c, tree, in, out, op); err != nil {
						return err
					}
					if c.Rank() != 0 {
						return nil
					}
					return eq(t, fmt.Sprintf("%v p=%d op=%s", kind, p, op.Name), out, want)
				})
			}
		}
	}
}

func TestReduceArbitraryRoot(t *testing.T) {
	p, root, n := 16, 5, 8
	tree := core.MustTree(core.BineDH, p, root)
	want := expectedReduce(p, n, OpSum)
	runRanks(t, p, func(c fabric.Comm) error {
		out := make([]int32, n)
		if err := Reduce(c, tree, input(c.Rank(), n), out, OpSum); err != nil {
			return err
		}
		if c.Rank() != root {
			return nil
		}
		return eq(t, "reduce root=5", out, want)
	})
}

func TestGatherScatterAllKinds(t *testing.T) {
	for _, kind := range treeKinds {
		for _, p := range []int{1, 2, 4, 8, 32, 6, 10, 9} {
			for _, root := range []int{0, p / 2} {
				tree, err := core.NewTree(kind, p, root)
				if err != nil {
					t.Fatal(err)
				}
				bs := 5
				full := make([]int32, p*bs)
				for r := 0; r < p; r++ {
					copy(full[r*bs:], input(r, bs))
				}
				runRanks(t, p, func(c fabric.Comm) error {
					r := c.Rank()
					var out []int32
					if r == root {
						out = make([]int32, p*bs)
					}
					if err := Gather(c, tree, input(r, bs), out); err != nil {
						return err
					}
					if r == root {
						if err := eq(t, fmt.Sprintf("gather %v p=%d root=%d", kind, p, root), out, full); err != nil {
							return err
						}
					}
					// Scatter back on a fresh tag window.
					own := make([]int32, bs)
					if err := Scatter(Offset(c, 4096), tree, full, own); err != nil {
						return err
					}
					return eq(t, fmt.Sprintf("scatter %v p=%d root=%d rank=%d", kind, p, root, r), own, input(r, bs))
				})
			}
		}
	}
}

func butterfliesFor(strat Strategy) []core.ButterflyKind {
	if strat == TwoTransmissions {
		return []core.ButterflyKind{core.BflyBineDH, core.BflyBinomialDH, core.BflyBinomialDD}
	}
	return []core.ButterflyKind{core.BflyBineDD, core.BflySwing, core.BflyBinomialDH, core.BflyBinomialDD}
}

func TestReduceScatterAllStrategies(t *testing.T) {
	for _, strat := range Strategies {
		for _, kind := range butterfliesFor(strat) {
			for _, p := range []int{1, 2, 4, 8, 16, 64} {
				b, err := core.NewButterfly(kind, p)
				if err != nil {
					t.Fatal(err)
				}
				bs := 3
				want := expectedReduce(p, p*bs, OpSum)
				runRanks(t, p, func(c fabric.Comm) error {
					r := c.Rank()
					out := make([]int32, bs)
					if err := ReduceScatter(c, b, strat, input(r, p*bs), out, OpSum); err != nil {
						return err
					}
					return eq(t, fmt.Sprintf("rs %v/%v p=%d rank=%d", kind, strat, p, r),
						out, want[r*bs:(r+1)*bs])
				})
			}
		}
	}
}

func TestAllgatherAllStrategies(t *testing.T) {
	for _, strat := range Strategies {
		for _, kind := range butterfliesFor(strat) {
			for _, p := range []int{1, 2, 4, 8, 16, 64} {
				b, err := core.NewButterfly(kind, p)
				if err != nil {
					t.Fatal(err)
				}
				bs := 4
				full := make([]int32, p*bs)
				for r := 0; r < p; r++ {
					copy(full[r*bs:], input(r, bs))
				}
				runRanks(t, p, func(c fabric.Comm) error {
					out := make([]int32, p*bs)
					if err := Allgather(c, b, strat, input(c.Rank(), bs), out); err != nil {
						return err
					}
					return eq(t, fmt.Sprintf("ag %v/%v p=%d rank=%d", kind, strat, p, c.Rank()), out, full)
				})
			}
		}
	}
}

func TestAllreduceRecDoubling(t *testing.T) {
	for _, kind := range []core.ButterflyKind{core.BflyBineDD, core.BflyBineDH, core.BflyBinomialDD} {
		for _, p := range []int{1, 2, 8, 32, 128} {
			b, err := core.NewButterfly(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			n := 9
			want := expectedReduce(p, n, OpSum)
			runRanks(t, p, func(c fabric.Comm) error {
				buf := input(c.Rank(), n)
				if err := AllreduceRecDoubling(c, b, buf, OpSum); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("ard %v p=%d", kind, p), buf, want)
			})
		}
	}
}

// TestButterflyRangesClosedForm pins splitRanges and keepRange, which derive
// every step's position ranges from the permuted positions of the rank and
// its partner alone, to the block sets they stand for: for every kind the
// contiguous strategies run on, power-of-two p, rank and step, the sent and
// kept ranges are exactly the permuted-position spans of SendSet and
// KeepSet, and those spans are contiguous.
func TestButterflyRangesClosedForm(t *testing.T) {
	maxP := 4096
	if testing.Short() {
		maxP = 256
	}
	// span returns the permuted positions of blks as [lo, hi), or ok=false
	// when they are not one contiguous range.
	span := func(b *core.Butterfly, blks []int) (lo, hi int, ok bool) {
		lo, hi = b.P, 0
		for _, blk := range blks {
			pos := b.PermutedPosition(blk)
			lo, hi = min(lo, pos), max(hi, pos+1)
		}
		return lo, hi, hi-lo == len(blks)
	}
	for _, kind := range []core.ButterflyKind{core.BflyBineDD, core.BflySwing, core.BflyBinomialDH, core.BflyBinomialDD} {
		for p := 2; p <= maxP; p *= 2 {
			b := core.MustButterfly(kind, p)
			for r := 0; r < p; r++ {
				lo, hi := keepRange(b, r, -1)
				if lo != 0 || hi != p {
					t.Fatalf("%v p=%d: keepRange(%d, -1) = [%d,%d), want [0,%d)", kind, p, r, lo, hi, p)
				}
				for i := 0; i < b.S; i++ {
					slo, shi, klo, khi, err := splitRanges(b, r, i, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					wslo, wshi, sok := span(b, b.SendSet(r, i))
					wklo, wkhi, kok := span(b, b.KeepSet(r, i))
					if !sok || !kok {
						t.Fatalf("%v p=%d r=%d step %d: send [%d,%d) or keep [%d,%d) positions not contiguous",
							kind, p, r, i, wslo, wshi, wklo, wkhi)
					}
					if slo != wslo || shi != wshi || klo != wklo || khi != wkhi {
						t.Fatalf("%v p=%d r=%d step %d: splitRanges sends [%d,%d) keeps [%d,%d), block sets span [%d,%d) and [%d,%d)",
							kind, p, r, i, slo, shi, klo, khi, wslo, wshi, wklo, wkhi)
					}
					if glo, ghi := keepRange(b, r, i); glo != klo || ghi != khi {
						t.Fatalf("%v p=%d r=%d: keepRange(%d) = [%d,%d), want [%d,%d)", kind, p, r, i, glo, ghi, klo, khi)
					}
					lo, hi = klo, khi
				}
			}
		}
	}
}

func TestAllreduceRsAg(t *testing.T) {
	for _, kind := range []core.ButterflyKind{core.BflyBineDD, core.BflyBinomialDH} {
		for _, p := range []int{1, 2, 4, 16, 64, 256} {
			b, err := core.NewButterfly(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			n := p * 2
			want := expectedReduce(p, n, OpSum)
			runRanks(t, p, func(c fabric.Comm) error {
				buf := input(c.Rank(), n)
				if err := AllreduceRsAg(c, b, buf, OpSum); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("rsag %v p=%d rank=%d", kind, p, c.Rank()), buf, want)
			})
		}
	}
}

func TestRingCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16, 30} {
		bs := 3
		n := p * bs
		wantRed := expectedReduce(p, n, OpSum)
		full := make([]int32, n)
		for r := 0; r < p; r++ {
			copy(full[r*bs:], input(r, bs))
		}
		runRanks(t, p, func(c fabric.Comm) error {
			r := c.Rank()
			out := make([]int32, bs)
			if err := RingReduceScatter(c, input(r, n), out, OpSum); err != nil {
				return err
			}
			if err := eq(t, fmt.Sprintf("ring-rs p=%d rank=%d", p, r), out, wantRed[r*bs:(r+1)*bs]); err != nil {
				return err
			}
			ag := make([]int32, n)
			if err := RingAllgather(Offset(c, 4096), input(r, bs), ag); err != nil {
				return err
			}
			if err := eq(t, fmt.Sprintf("ring-ag p=%d rank=%d", p, r), ag, full); err != nil {
				return err
			}
			buf := input(r, n)
			if err := RingAllreduce(Offset(c, 8192), buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("ring-allreduce p=%d rank=%d", p, r), buf, wantRed)
		})
	}
}

// TestRingAllreduceUnderShortWatchdog is the receive watchdog's scale case:
// 2(p−1) steps over 1024 ranks keep most receives waiting far longer than
// 50 ms on a bare Mem, and none may fail, because the fabric never stops
// delivering; nor may a thousand receivers expiring together stall it.
func TestRingAllreduceUnderShortWatchdog(t *testing.T) {
	const p = 1024
	f := fabric.NewMem(p)
	f.SetTimeout(50 * time.Millisecond)
	want := expectedReduce(p, p, OpSum)
	runRanksOn(t, f, func(c fabric.Comm) error {
		buf := input(c.Rank(), p)
		if err := RingAllreduce(c, buf, OpSum); err != nil {
			return err
		}
		return eq(t, fmt.Sprintf("ring-allreduce p=%d rank=%d", p, c.Rank()), buf, want)
	})
}

func alltoallExpected(p, bs, me int) []int32 {
	out := make([]int32, p*bs)
	for o := 0; o < p; o++ {
		full := input(o, p*bs)
		copy(out[o*bs:(o+1)*bs], full[me*bs:(me+1)*bs])
	}
	return out
}

func TestAlltoallAlgorithms(t *testing.T) {
	bs := 3
	t.Run("Bine", func(t *testing.T) {
		for _, p := range []int{1, 2, 4, 8, 16, 32} {
			b, err := core.NewButterfly(core.BflyBineDD, p)
			if err != nil {
				t.Fatal(err)
			}
			runRanks(t, p, func(c fabric.Comm) error {
				out := make([]int32, p*bs)
				if err := BineAlltoall(c, b, input(c.Rank(), p*bs), out); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("bine-a2a p=%d rank=%d", p, c.Rank()),
					out, alltoallExpected(p, bs, c.Rank()))
			})
		}
	})
	t.Run("Bruck", func(t *testing.T) {
		for _, p := range []int{1, 2, 3, 4, 8, 11, 16} {
			runRanks(t, p, func(c fabric.Comm) error {
				out := make([]int32, p*bs)
				if err := BruckAlltoall(c, input(c.Rank(), p*bs), out); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("bruck-a2a p=%d rank=%d", p, c.Rank()),
					out, alltoallExpected(p, bs, c.Rank()))
			})
		}
	})
	t.Run("Pairwise", func(t *testing.T) {
		for _, p := range []int{1, 2, 5, 8, 16} {
			runRanks(t, p, func(c fabric.Comm) error {
				out := make([]int32, p*bs)
				if err := PairwiseAlltoall(c, input(c.Rank(), p*bs), out); err != nil {
					return err
				}
				return eq(t, fmt.Sprintf("pairwise-a2a p=%d rank=%d", p, c.Rank()),
					out, alltoallExpected(p, bs, c.Rank()))
			})
		}
	})
}

func TestBruckAndSparbitAllgather(t *testing.T) {
	bs := 4
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		full := make([]int32, p*bs)
		for r := 0; r < p; r++ {
			copy(full[r*bs:], input(r, bs))
		}
		runRanks(t, p, func(c fabric.Comm) error {
			out := make([]int32, p*bs)
			if err := BruckAllgather(c, input(c.Rank(), bs), out); err != nil {
				return err
			}
			if err := eq(t, fmt.Sprintf("bruck-ag p=%d", p), out, full); err != nil {
				return err
			}
			out2 := make([]int32, p*bs)
			if err := SparbitAllgather(Offset(c, 4096), input(c.Rank(), bs), out2); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("sparbit-ag p=%d", p), out2, full)
		})
	}
	// Bruck also handles non-power-of-two rank counts.
	for _, p := range []int{3, 6, 11} {
		full := make([]int32, p*bs)
		for r := 0; r < p; r++ {
			copy(full[r*bs:], input(r, bs))
		}
		runRanks(t, p, func(c fabric.Comm) error {
			out := make([]int32, p*bs)
			if err := BruckAllgather(c, input(c.Rank(), bs), out); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("bruck-ag p=%d", p), out, full)
		})
	}
}

func TestCompositeBcastAndReduce(t *testing.T) {
	cases := []struct {
		tree core.Kind
		bfly core.ButterflyKind
	}{
		{core.BineDD, core.BflyBineDD},
		{core.BinomialDH, core.BflyBinomialDH},
	}
	for _, cse := range cases {
		for _, strat := range []Strategy{BlockByBlock, Permute, Send} {
			for _, p := range []int{2, 4, 16, 64} {
				tree, bfly := core.MustTree(cse.tree, p, 0), core.MustButterfly(cse.bfly, p)
				for _, root := range []int{0, p - 1} {
					n := p * 3
					want := input(root, n)
					runRanks(t, p, func(c fabric.Comm) error {
						buf := make([]int32, n)
						if c.Rank() == root {
							copy(buf, want)
						}
						if err := BcastScatterAllgather(c, tree, bfly, strat, root, buf); err != nil {
							return err
						}
						return eq(t, fmt.Sprintf("bcast-sag %v/%v/%v p=%d root=%d", cse.tree, cse.bfly, strat, p, root), buf, want)
					})
					wantRed := expectedReduce(p, n, OpSum)
					runRanks(t, p, func(c fabric.Comm) error {
						var out []int32
						if c.Rank() == root {
							out = make([]int32, n)
						}
						if err := ReduceRsGather(c, bfly, tree, strat, root, input(c.Rank(), n), out, OpSum); err != nil {
							return err
						}
						if c.Rank() != root {
							return nil
						}
						return eq(t, fmt.Sprintf("reduce-rsg %v/%v p=%d root=%d", cse.bfly, strat, p, root), out, wantRed)
					})
				}
			}
		}
	}
}

func TestHierarchicalAllreduce(t *testing.T) {
	for _, cfg := range []struct{ p, g int }{{4, 4}, {8, 4}, {16, 4}, {64, 4}, {16, 2}, {8, 8}} {
		n := cfg.p * 2
		want := expectedReduce(cfg.p, n, OpSum)
		runRanks(t, cfg.p, func(c fabric.Comm) error {
			buf := input(c.Rank(), n)
			if err := HierarchicalAllreduce(c, cfg.g, core.BflyBineDD, buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("hier p=%d g=%d rank=%d", cfg.p, cfg.g, c.Rank()), buf, want)
		})
	}
}

func TestAllreduceReduceBcast(t *testing.T) {
	for _, p := range []int{2, 8, 12} {
		n := 7
		want := expectedReduce(p, n, OpSum)
		tree := core.MustTree(core.BineDH, p, 0)
		runRanks(t, p, func(c fabric.Comm) error {
			buf := input(c.Rank(), n)
			if err := AllreduceReduceBcast(c, tree, buf, OpSum); err != nil {
				return err
			}
			return eq(t, fmt.Sprintf("red-bcast p=%d", p), buf, want)
		})
	}
}

func TestInputValidation(t *testing.T) {
	b := core.MustButterfly(core.BflyBineDD, 4)
	tree := core.MustTree(core.BineDH, 4, 0)
	runRanks(t, 4, func(c fabric.Comm) error {
		if err := ReduceScatter(c, b, Permute, make([]int32, 7), make([]int32, 1), OpSum); err == nil {
			return fmt.Errorf("indivisible vector accepted")
		}
		if err := Allgather(c, b, Permute, make([]int32, 2), make([]int32, 9)); err == nil {
			return fmt.Errorf("mismatched allgather accepted")
		}
		if err := Gather(c, tree, make([]int32, 2), nil); c.Rank() == 0 && err == nil {
			return fmt.Errorf("nil gather out accepted at root")
		}
		return nil
	})
	// Wrong-size communicator.
	runRanks(t, 2, func(c fabric.Comm) error {
		if err := Bcast(c, tree, make([]int32, 4)); err == nil {
			return fmt.Errorf("tree size mismatch accepted")
		}
		return nil
	})
}
