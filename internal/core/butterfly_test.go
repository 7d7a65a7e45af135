package core

import (
	"slices"
	"testing"
)

var allBflyKinds = []ButterflyKind{BflyBineDH, BflyBineDD, BflyBinomialDH, BflyBinomialDD, BflySwing}

func TestButterflyPairingSymmetric(t *testing.T) {
	for _, kind := range allBflyKinds {
		for _, p := range []int{2, 4, 8, 32, 256, 1024} {
			b := MustButterfly(kind, p)
			for i := 0; i < b.S; i++ {
				for r := 0; r < p; r++ {
					q := b.Partner(r, i)
					if q == r {
						t.Fatalf("%v p=%d: self-partner at step %d", kind, p, i)
					}
					if back := b.Partner(q, i); back != r {
						t.Fatalf("%v p=%d step %d: partner(%d)=%d but partner(%d)=%d",
							kind, p, i, r, q, q, back)
					}
				}
			}
		}
	}
}

func TestButterflyClosedForms(t *testing.T) {
	// Eq. 4 / Eq. 5 written out longhand: δ = (1 − (−2)^{s−i})/3 for
	// distance halving, (1 − (−2)^{i+1})/3 for distance doubling.
	pow := func(k int) int64 { // (−2)^k
		v := int64(1)
		for j := 0; j < k; j++ {
			v *= -2
		}
		return v
	}
	for _, p := range []int{2, 4, 8, 16, 64, 512} {
		s, _ := Log2(p)
		dh := MustButterfly(BflyBineDH, p)
		dd := MustButterfly(BflyBineDD, p)
		for i := 0; i < s; i++ {
			dDH := (1 - pow(s-i)) / 3
			dDD := (1 - pow(i+1)) / 3
			for r := 0; r < p; r++ {
				sign := int64(1)
				if r%2 == 1 {
					sign = -1
				}
				if got, want := dh.Partner(r, i), Mod(r+int(sign*dDH), p); got != want {
					t.Fatalf("dh p=%d step %d rank %d: %d want %d", p, i, r, got, want)
				}
				if got, want := dd.Partner(r, i), Mod(r+int(sign*dDD), p); got != want {
					t.Fatalf("dd p=%d step %d rank %d: %d want %d", p, i, r, got, want)
				}
			}
		}
	}
}

func TestButterflyFigure6Annotations(t *testing.T) {
	// Fig. 6 (left, distance-halving, p=8): at step 0 rank 2 communicates
	// with rank 5; (right, distance-doubling): at step 1 rank 5 communicates
	// with rank 6.
	dh := MustButterfly(BflyBineDH, 8)
	if q := dh.Partner(2, 0); q != 5 {
		t.Errorf("dh step 0 partner of 2 = %d, want 5", q)
	}
	dd := MustButterfly(BflyBineDD, 8)
	if q := dd.Partner(5, 1); q != 6 {
		t.Errorf("dd step 1 partner of 5 = %d, want 6", q)
	}
}

func TestButterflyDistancesMonotone(t *testing.T) {
	for _, p := range []int{8, 64, 1024} {
		dh := MustButterfly(BflyBineDH, p)
		dd := MustButterfly(BflyBineDD, p)
		for i := 1; i < dh.S; i++ {
			if dh.ModDistAt(i) > dh.ModDistAt(i-1) {
				t.Errorf("p=%d: dh distance grows at step %d", p, i)
			}
			if dd.ModDistAt(i) < dd.ModDistAt(i-1) {
				t.Errorf("p=%d: dd distance shrinks at step %d", p, i)
			}
		}
	}
}

func TestButterflyBineVsBinomialDistance(t *testing.T) {
	// Eq. 2: per-step Bine distances are ≈2/3 of the binomial ones.
	for _, p := range []int{8, 64, 1024, 4096} {
		bine := MustButterfly(BflyBineDH, p)
		binom := MustButterfly(BflyBinomialDH, p)
		for i := 0; i < bine.S; i++ {
			db, dn := bine.ModDistAt(i), binom.ModDistAt(i)
			if diff := 3*db - 2*dn; diff != 1 && diff != -1 {
				t.Errorf("p=%d step %d: 3·%d vs 2·%d", p, i, db, dn)
			}
		}
	}
}

func TestButterflyParityAlternation(t *testing.T) {
	// Bine butterflies always pair an even rank with an odd rank (Sec. 3.1).
	for _, kind := range []ButterflyKind{BflyBineDH, BflyBineDD, BflySwing} {
		b := MustButterfly(kind, 64)
		for i := 0; i < b.S; i++ {
			for r := 0; r < 64; r++ {
				if (r+b.Partner(r, i))%2 == 0 {
					t.Fatalf("%v step %d: ranks %d and %d share parity", kind, i, r, b.Partner(r, i))
				}
			}
		}
	}
}

func TestReduceScatterBlockBookkeeping(t *testing.T) {
	for _, kind := range allBflyKinds {
		for _, p := range []int{2, 4, 8, 16, 64} {
			b := MustButterfly(kind, p)
			for r := 0; r < p; r++ {
				owned := make(map[int]bool, p)
				for blk := 0; blk < p; blk++ {
					owned[blk] = true
				}
				for i := 0; i < b.S; i++ {
					send := b.SendSet(r, i)
					for _, blk := range send {
						if !owned[blk] {
							t.Fatalf("%v p=%d r=%d step %d: sending unowned block %d", kind, p, r, i, blk)
						}
						delete(owned, blk)
					}
					keep := b.KeepSet(r, i)
					if len(keep) != len(owned) {
						t.Fatalf("%v p=%d r=%d step %d: keep %d vs owned %d", kind, p, r, i, len(keep), len(owned))
					}
					for _, blk := range keep {
						if !owned[blk] {
							t.Fatalf("%v p=%d r=%d step %d: KeepSet holds unowned %d", kind, p, r, i, blk)
						}
					}
					// What the partner sends must be blocks this rank keeps.
					for _, blk := range b.SendSet(b.Partner(r, i), i) {
						if !owned[blk] {
							t.Fatalf("%v p=%d r=%d step %d: received block %d not kept", kind, p, r, i, blk)
						}
					}
				}
				if len(owned) != 1 || !owned[r] {
					t.Fatalf("%v p=%d: rank %d ends owning %v, want {%d}", kind, p, r, owned, r)
				}
			}
		}
	}
}

func TestReduceScatterContributionCoverage(t *testing.T) {
	// Dataflow correctness of the butterfly bookkeeping, checked
	// symbolically: simulate the reduce-scatter with contribution *sets*
	// instead of values. After the last step, rank r's block r must hold
	// contributions from every rank exactly once.
	for _, kind := range allBflyKinds {
		for _, p := range []int{2, 4, 8, 16, 32, 128} {
			b := MustButterfly(kind, p)
			// contrib[r][blk] = set of ranks whose contribution to blk is
			// already folded into r's partial (bitmask over ranks).
			contrib := make([][]map[int]int, p)
			for r := 0; r < p; r++ {
				contrib[r] = make([]map[int]int, p)
				for blk := 0; blk < p; blk++ {
					contrib[r][blk] = map[int]int{r: 1}
				}
			}
			for i := 0; i < b.S; i++ {
				// Compute all sends of the step first (synchronous step).
				type msg struct {
					to, blk int
					set     map[int]int
				}
				var msgs []msg
				for r := 0; r < p; r++ {
					q := b.Partner(r, i)
					for _, blk := range b.SendSet(r, i) {
						cp := make(map[int]int, len(contrib[r][blk]))
						for k, v := range contrib[r][blk] {
							cp[k] = v
						}
						msgs = append(msgs, msg{to: q, blk: blk, set: cp})
					}
				}
				for _, m := range msgs {
					for k, v := range m.set {
						contrib[m.to][m.blk][k] += v
					}
				}
			}
			for r := 0; r < p; r++ {
				got := contrib[r][r]
				if len(got) != p {
					t.Fatalf("%v p=%d: rank %d block %d has %d contributions, want %d",
						kind, p, r, r, len(got), p)
				}
				for k, v := range got {
					if v != 1 {
						t.Fatalf("%v p=%d: rank %d block %d counts contribution of %d %d times",
							kind, p, r, r, k, v)
					}
				}
			}
		}
	}
}

func TestSendSetsHalve(t *testing.T) {
	for _, kind := range allBflyKinds {
		b := MustButterfly(kind, 32)
		for r := 0; r < 32; r++ {
			for i := 0; i < b.S; i++ {
				if got, want := len(b.SendSet(r, i)), 32>>(uint(i)+1); got != want {
					t.Fatalf("%v r=%d step %d: send %d blocks, want %d", kind, r, i, got, want)
				}
			}
		}
	}
}

func TestPermutedPositionsContiguousForDD(t *testing.T) {
	// Sec. 4.3.1 "Permute": placing block b at reverse(ν(b)) makes every
	// distance-doubling send set a contiguous (non-wrapping) range of
	// positions.
	for _, kind := range []ButterflyKind{BflyBineDD, BflyBinomialDH} {
		for _, p := range []int{2, 8, 16, 64, 256} {
			b := MustButterfly(kind, p)
			for r := 0; r < p; r++ {
				for i := 0; i < b.S; i++ {
					send := b.SendSet(r, i)
					positions := make([]int, len(send))
					for k, blk := range send {
						positions[k] = b.PermutedPosition(blk)
					}
					runs := CircRuns(positions, p)
					if len(runs) != 1 || runs[0].Start+runs[0].Len > p {
						t.Fatalf("%v p=%d r=%d step %d: permuted positions not linearly contiguous: %v",
							kind, p, r, i, runs)
					}
				}
			}
		}
	}
}

func TestPermuteExamplePaperFigure8(t *testing.T) {
	// Fig. 8: for p=8, at step 0 of the reduce-scatter rank 0 sends blocks
	// 1, 2, 5, 6 (those whose ν has LSB 1), which the permutation places at
	// positions 4–7.
	b := MustButterfly(BflyBineDD, 8)
	send := b.SendSet(0, 0)
	want := []int{1, 2, 5, 6}
	if len(send) != len(want) {
		t.Fatalf("send set %v", send)
	}
	for k := range want {
		if send[k] != want[k] {
			t.Fatalf("send set %v, want %v", send, want)
		}
	}
	pos := map[int]bool{}
	for _, blk := range send {
		pos[b.PermutedPosition(blk)] = true
	}
	for q := 4; q < 8; q++ {
		if !pos[q] {
			t.Errorf("permuted positions %v do not cover 4–7", pos)
		}
	}
	// Fig. 8 destination row: reverse(ν(i)) = [0,4,6,1,3,7,5,2].
	wantPos := []int{0, 4, 6, 1, 3, 7, 5, 2}
	for blk, w := range wantPos {
		if got := b.PermutedPosition(blk); got != w {
			t.Errorf("PermutedPosition(%d) = %d, want %d", blk, got, w)
		}
		if back := b.PermutedInverse(w); back != blk {
			t.Errorf("PermutedInverse(%d) = %d, want %d", w, back, blk)
		}
	}
}

func TestTwoTransmissionsBound(t *testing.T) {
	// Sec. 4.3.1 "Two Transmissions": in the distance-halving butterfly the
	// send sets split into at most two circularly contiguous runs.
	for _, p := range []int{4, 8, 16, 64, 256, 1024} {
		b := MustButterfly(BflyBineDH, p)
		for r := 0; r < p; r++ {
			for i := 0; i < b.S; i++ {
				runs := CircRuns(b.SendSet(r, i), p)
				if len(runs) > 2 {
					t.Fatalf("p=%d r=%d step %d: %d runs", p, r, i, len(runs))
				}
			}
		}
	}
}

// TestBineDHSendRuns pins SendRuns' closed-form run of the distance-halving
// butterfly to the definition: the one circular run CircRuns finds in the
// step's send set, for every power-of-two p, rank and step. It also checks
// the run is appended after dst's existing contents.
func TestBineDHSendRuns(t *testing.T) {
	maxP := 4096
	if testing.Short() {
		maxP = 256
	}
	prefix := []CircRange{{Start: -1, Len: -1}}
	for p := 2; p <= maxP; p *= 2 {
		b := MustButterfly(BflyBineDH, p)
		for r := 0; r < p; r++ {
			for i := 0; i < b.S; i++ {
				want := CircRuns(b.SendSet(r, i), p)
				if len(want) != 1 {
					t.Fatalf("p=%d r=%d step %d: send set forms %d runs, want 1", p, r, i, len(want))
				}
				got := b.SendRuns(prefix, r, i)
				if len(got) != 2 || got[0] != prefix[0] || got[1] != want[0] {
					t.Fatalf("p=%d: SendRuns(%v, %d, %d) = %v, want %v", p, prefix, r, i, got, append(prefix, want...))
				}
			}
		}
	}
}

func TestButterflyMatchesTreeSubtrees(t *testing.T) {
	// The butterfly is a superposition of trees: rank 0's send set at step i
	// of the distance-doubling butterfly must be exactly the subtree of the
	// step-i child of the distance-doubling Bine tree rooted at 0
	// (Sec. 4.3), and likewise for distance halving.
	cases := []struct {
		bfly ButterflyKind
		tree Kind
	}{
		{BflyBineDD, BineDD},
		{BflyBineDH, BineDH},
	}
	for _, c := range cases {
		for _, p := range []int{4, 8, 32, 128} {
			b := MustButterfly(c.bfly, p)
			tr := MustTree(c.tree, p, 0)
			for _, e := range tr.Children[0] {
				want := tr.Subtree(e.Child)
				got := b.SendSet(0, e.Step)
				if len(got) != len(want) {
					t.Fatalf("%v p=%d step %d: send %v, subtree %v", c.bfly, p, e.Step, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%v p=%d step %d: send %v, subtree %v", c.bfly, p, e.Step, got, want)
					}
				}
			}
		}
	}
}

func TestButterflyRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := NewButterfly(BflyBineDD, 6); err == nil {
		t.Error("p=6 should fail")
	}
	if _, err := NewButterfly(BflyBineDD, 0); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := NewButterfly(ButterflyKind(99), 8); err == nil {
		t.Error("unknown kind should fail")
	}
}

// refBlockSets is the definitional scan SendSet and KeepSet used before they
// read the per-step offset tables (Bine) and fixed-bit masks (binomial): test
// every offset, or every block, against the per-step predicate. It returns
// rank r's send and keep lists of every step in scan order — ascending
// offset for Bine kinds, ascending block for binomial kinds; the send lists
// are AppendSendBlocks order.
func refBlockSets(b *Butterfly, r int) (send, keep [][]int) {
	send, keep = make([][]int, b.S), make([][]int, b.S)
	owned := make([]bool, b.P) // indexed by offset (Bine) or block (binomial)
	for k := range owned {
		owned[k] = true
	}
	for i := 0; i < b.S; i++ {
		for k := 0; k < b.P; k++ {
			if !owned[k] {
				continue
			}
			if b.Kind.IsBine() {
				switch {
				case b.offsetSent(k, i):
					send[i] = append(send[i], b.blockAt(r, k))
				case b.offsetKeeps(k, i):
					keep[i] = append(keep[i], b.blockAt(r, k))
					continue
				}
			} else {
				bit := uint(b.binomialBit(i))
				if (k>>bit)&1 == (r>>bit)&1 {
					keep[i] = append(keep[i], k)
					continue
				}
				send[i] = append(send[i], k)
			}
			owned[k] = false
		}
	}
	return send, keep
}

func ascending(v []int) []int {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// TestBlockSetsMatchDefinition pins the O(|set|) block-set queries to the
// definitional scan for every kind, power-of-two p, rank and step: wrap-around
// of the rotated offset tables and bit-mask enumeration errors only show at
// large p.
func TestBlockSetsMatchDefinition(t *testing.T) {
	maxP := 2048
	if testing.Short() {
		maxP = 256
	}
	for _, kind := range allBflyKinds {
		for p := 2; p <= maxP; p *= 2 {
			b := MustButterfly(kind, p)
			all := make([]int, p)
			for blk := range all {
				all[blk] = blk
			}
			for r := 0; r < p; r++ {
				if got := b.KeepSet(r, -1); !slices.Equal(got, all) {
					t.Fatalf("%v p=%d: KeepSet(%d, -1) = %v", kind, p, r, got)
				}
				prevKeep := all
				send, keep := refBlockSets(b, r)
				for i := 0; i < b.S; i++ {
					if got := b.AppendSendBlocks(nil, r, i); !slices.Equal(got, send[i]) {
						t.Fatalf("%v p=%d: AppendSendBlocks(nil, %d, %d) = %v, want %v", kind, p, r, i, got, send[i])
					}
					wantSend, wantKeep := ascending(send[i]), ascending(keep[i])
					gotSend, gotKeep := b.SendSet(r, i), b.KeepSet(r, i)
					if !slices.Equal(gotSend, wantSend) {
						t.Fatalf("%v p=%d: SendSet(%d, %d) = %v, want %v", kind, p, r, i, gotSend, wantSend)
					}
					if !slices.Equal(gotKeep, wantKeep) {
						t.Fatalf("%v p=%d: KeepSet(%d, %d) = %v, want %v", kind, p, r, i, gotKeep, wantKeep)
					}
					// Partition: send ∪ keep is exactly what was kept before.
					if union := ascending(append(gotSend, gotKeep...)); !slices.Equal(union, prevKeep) {
						t.Fatalf("%v p=%d r=%d step %d: send ∪ keep = %v, want %v", kind, p, r, i, union, prevKeep)
					}
					prevKeep = wantKeep
				}
			}
		}
	}
}

// TestBlockSetsAreFreshSlices pins the ownership contract: every block-set
// query returns a slice the caller may modify without disturbing the
// butterfly's tables or a later query.
func TestBlockSetsAreFreshSlices(t *testing.T) {
	for _, kind := range allBflyKinds {
		b := MustButterfly(kind, 16)
		queries := map[string]func(r, i int) []int{
			"SendSet": b.SendSet, "KeepSet": b.KeepSet,
			"AppendSendBlocks": func(r, i int) []int { return b.AppendSendBlocks(nil, r, i) },
		}
		for name, q := range queries {
			for _, i := range []int{-1, 0, b.S - 1} {
				if i < 0 && name != "KeepSet" {
					continue
				}
				for r := 0; r < 2; r++ {
					want := append([]int(nil), q(r, i)...)
					got := q(r, i)
					for k := range got {
						got[k] = -1
					}
					if again := q(r, i); !slices.Equal(again, want) {
						t.Fatalf("%v: %s(%d, %d) changed after its result was modified: %v, want %v", kind, name, r, i, again, want)
					}
				}
			}
		}
	}
}
