package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeKnownValues(t *testing.T) {
	cases := []struct {
		v  int64
		nb uint64
	}{
		{0, 0b0},
		{1, 0b1},
		{2, 0b110},
		{3, 0b111},
		{4, 0b100},
		{5, 0b101},
		{6, 0b11010},
		{-1, 0b11},
		{-2, 0b10},
		{-3, 0b1101},
		{-4, 0b1100},
		{-5, 0b1111},
		{21, 0b010101}, // paper example: m on six bits
	}
	for _, c := range cases {
		if got := EncodeNB(c.v); got != c.nb {
			t.Errorf("EncodeNB(%d) = %b, want %b", c.v, got, c.nb)
		}
		if got := DecodeNB(c.nb); got != c.v {
			t.Errorf("DecodeNB(%b) = %d, want %d", c.nb, got, c.v)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		return DecodeNB(EncodeNB(int64(v))) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeIsSumOfPowers(t *testing.T) {
	f := func(raw uint16) bool {
		nb := uint64(raw)
		var want int64
		pow := int64(1)
		for i := 0; i < 16; i++ {
			if nb&(1<<uint(i)) != 0 {
				want += pow
			}
			pow *= -2
		}
		return DecodeNB(nb) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPosMinNeg(t *testing.T) {
	cases := []struct {
		s        int
		max, min int64
	}{
		{1, 1, 0},
		{2, 1, -2},
		{3, 5, -2},
		{4, 5, -10},
		{5, 21, -10},
		{6, 21, -42},
	}
	for _, c := range cases {
		if got := MaxPos(c.s); got != c.max {
			t.Errorf("MaxPos(%d) = %d, want %d", c.s, got, c.max)
		}
		if got := MinNeg(c.s); got != c.min {
			t.Errorf("MinNeg(%d) = %d, want %d", c.s, got, c.min)
		}
	}
}

func TestSBitRangeCoversRing(t *testing.T) {
	// The s-bit negabinary range [MinNeg, MaxPos] must contain exactly 2^s
	// consecutive integers, so ranks [0,p) map bijectively onto it mod p.
	for s := 1; s <= 20; s++ {
		if MaxPos(s)-MinNeg(s)+1 != int64(1)<<uint(s) {
			t.Errorf("s=%d: range [%d,%d] does not cover 2^s values", s, MinNeg(s), MaxPos(s))
		}
	}
}

func TestRankToNBPaperExamples(t *testing.T) {
	// Sec. 2.3.1: rank2nb(2,8) = 110, rank2nb(6,8) = 010 (encoding 6−8 = −2).
	if got := RankToNB(2, 8); got != 0b110 {
		t.Errorf("RankToNB(2,8) = %b, want 110", got)
	}
	if got := RankToNB(6, 8); got != 0b010 {
		t.Errorf("RankToNB(6,8) = %b, want 010", got)
	}
	// Fig. 3E: m = 101 = 5 for an 8-node tree.
	if m := MaxPos(3); m != 5 {
		t.Errorf("MaxPos(3) = %d, want 5", m)
	}
}

func TestRankToNBBijection(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 64, 256, 1024} {
		s := Log2Ceil(p)
		seen := make(map[uint64]int, p)
		for r := 0; r < p; r++ {
			nb := RankToNB(r, p)
			if nb >= uint64(1)<<uint(s) {
				t.Fatalf("p=%d: RankToNB(%d) = %b exceeds %d bits", p, r, nb, s)
			}
			if prev, dup := seen[nb]; dup {
				t.Fatalf("p=%d: ranks %d and %d share representation %b", p, prev, r, nb)
			}
			seen[nb] = r
			if back := NBToRank(nb, p); back != r {
				t.Fatalf("p=%d: NBToRank(RankToNB(%d)) = %d", p, r, back)
			}
		}
	}
}

func TestTrailingIdentical(t *testing.T) {
	cases := []struct {
		nb   uint64
		s, u int
	}{
		{0b1000, 4, 3},
		{0b1011, 4, 2},
		{0b0000, 4, 4},
		{0b1111, 4, 4},
		{0b0001, 4, 1},
		{0b10, 2, 1},
		{0b1, 1, 1},
	}
	for _, c := range cases {
		if got := TrailingIdentical(c.nb, c.s); got != c.u {
			t.Errorf("TrailingIdentical(%b, %d) = %d, want %d", c.nb, c.s, got, c.u)
		}
	}
}

func TestReverse(t *testing.T) {
	if got := Reverse(0b001, 3); got != 0b100 {
		t.Errorf("Reverse(001,3) = %b", got)
	}
	if got := Reverse(0b110, 3); got != 0b011 {
		t.Errorf("Reverse(110,3) = %b", got)
	}
	f := func(raw uint16) bool {
		v := uint64(raw) & Ones(16)
		return Reverse(Reverse(v, 16), 16) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNuPaperExample(t *testing.T) {
	// Fig. 6: for p = 8, ν = [000, 001, 011, 100, 110, 111, 101, 010].
	want := []uint64{0b000, 0b001, 0b011, 0b100, 0b110, 0b111, 0b101, 0b010}
	for r, w := range want {
		if got := Nu(r, 8); got != w {
			t.Errorf("Nu(%d,8) = %03b, want %03b", r, got, w)
		}
	}
	// Worked examples from Fig. 6 annotations: ν(1,8) = 001 and ν(6,8) = 101.
	if Nu(1, 8) != 0b001 || Nu(6, 8) != 0b101 {
		t.Error("Fig. 6 worked examples mismatch")
	}
}

func TestNuBijectionAndInverse(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 32, 128, 1024, 4096} {
		seen := make([]bool, p)
		for r := 0; r < p; r++ {
			v := Nu(r, p)
			if v >= uint64(p) {
				t.Fatalf("p=%d: Nu(%d) = %d out of range", p, r, v)
			}
			if seen[v] {
				t.Fatalf("p=%d: Nu not injective at %d", p, r)
			}
			seen[v] = true
			if back := NuInverse(v, p); back != r {
				t.Fatalf("p=%d: NuInverse(Nu(%d)) = %d", p, r, back)
			}
		}
	}
}

func TestNuPermutationConsistent(t *testing.T) {
	for _, p := range []int{4, 16, 256} {
		perm, inv := NuPermutation(p)
		for r := 0; r < p; r++ {
			if perm[r] != int(Nu(r, p)) {
				t.Fatalf("p=%d: perm[%d] mismatch", p, r)
			}
			if inv[perm[r]] != r {
				t.Fatalf("p=%d: inverse mismatch at %d", p, r)
			}
		}
	}
}

func TestBineDelta(t *testing.T) {
	// Σ_{k=0}^{j}(−2)^k: 1, −1, 3, −5, 11, −21, 43.
	want := []int64{1, -1, 3, -5, 11, -21, 43}
	for j, w := range want {
		if got := BineDelta(j); got != w {
			t.Errorf("BineDelta(%d) = %d, want %d", j, got, w)
		}
	}
	for j := 0; j < 30; j++ {
		if BineDelta(j)%2 == 0 {
			t.Errorf("BineDelta(%d) is even; partners must alternate parity", j)
		}
	}
}

func TestDistanceRatioBound(t *testing.T) {
	// Sec. 2.4.1 / Eq. 2: the Bine step distance is ≈ 2/3 of the binomial
	// step distance; exactly, |δbine(i)| = (2^{s−i} ± 1)/3 versus 2^{s−i−1}.
	for s := 2; s <= 16; s++ {
		for i := 0; i < s; i++ {
			bine := BineDeltaDH(i, s)
			if bine < 0 {
				bine = -bine
			}
			binom := BinomialDelta(i, s)
			ratio := float64(bine) / float64(binom)
			if ratio > 0.67*1.5 && s-i > 2 { // generous guard, tight check below
				t.Fatalf("s=%d i=%d ratio %.3f", s, i, ratio)
			}
			// The exact identity: 3·|δbine| differs from 2^{s−i} by exactly 1.
			diff := 3*bine - (int64(1) << uint(s-i))
			if diff != 1 && diff != -1 {
				t.Errorf("s=%d i=%d: 3·|δbine| = %d, want 2^{s-i}±1", s, i, 3*bine)
			}
			_ = ratio
		}
	}
}

func TestModDist(t *testing.T) {
	if ModDist(0, 15, 16) != 1 {
		t.Error("ModDist(0,15,16)")
	}
	if ModDist(0, 8, 16) != 8 {
		t.Error("ModDist(0,8,16)")
	}
	if ModDist(3, 3, 16) != 0 {
		t.Error("ModDist(3,3,16)")
	}
	f := func(a, b uint8) bool {
		p := 251
		x, y := int(a)%p, int(b)%p
		d := ModDist(x, y, p)
		return d == ModDist(y, x, p) && d >= 0 && d <= p/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLog2Helpers(t *testing.T) {
	if s, ok := Log2(1); !ok || s != 0 {
		t.Error("Log2(1)")
	}
	if s, ok := Log2(1024); !ok || s != 10 {
		t.Error("Log2(1024)")
	}
	if _, ok := Log2(12); ok {
		t.Error("Log2(12) should fail")
	}
	if _, ok := Log2(0); ok {
		t.Error("Log2(0) should fail")
	}
	if Log2Ceil(1) != 0 || Log2Ceil(2) != 1 || Log2Ceil(5) != 3 || Log2Ceil(8) != 3 {
		t.Error("Log2Ceil")
	}
	if Log2Floor(1) != 0 || Log2Floor(9) != 3 || Log2Floor(16) != 4 {
		t.Error("Log2Floor")
	}
}

func TestOnes(t *testing.T) {
	if Ones(0) != 0 || Ones(-3) != 0 {
		t.Error("Ones of non-positive width")
	}
	if Ones(3) != 0b111 {
		t.Error("Ones(3)")
	}
	if Ones(64) != ^uint64(0) || Ones(99) != ^uint64(0) {
		t.Error("Ones wide")
	}
}

// members lists a run's elements in circular order on a ring of p elements.
func members(c CircRange, p int) []int {
	out := make([]int, c.Len)
	for i := range out {
		out[i] = Mod(c.Start+i, p)
	}
	return out
}

func TestCircRuns(t *testing.T) {
	runs := CircRuns([]int{7, 0, 1, 2}, 8)
	if len(runs) != 1 || runs[0].Start != 7 || runs[0].Len != 4 {
		t.Errorf("wrap run: %+v", runs)
	}
	runs = CircRuns([]int{2, 7}, 8)
	if len(runs) != 2 {
		t.Errorf("disjoint: %+v", runs)
	}
	runs = CircRuns([]int{0, 1, 2, 3}, 4)
	if len(runs) != 1 || runs[0].Len != 4 {
		t.Errorf("full ring: %+v", runs)
	}
	// Property: runs partition the input and each run is circularly
	// contiguous.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		p := 2 + rng.Intn(60)
		var vals []int
		for v := 0; v < p; v++ {
			if rng.Intn(2) == 0 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		runs := CircRuns(vals, p)
		covered := map[int]bool{}
		for _, run := range runs {
			for _, m := range members(run, p) {
				if covered[m] {
					t.Fatalf("value %d covered twice", m)
				}
				covered[m] = true
				if !run.Contains(m, p) {
					t.Fatalf("run %+v does not contain member %d", run, m)
				}
			}
		}
		if len(covered) != len(vals) {
			t.Fatalf("runs cover %d of %d values", len(covered), len(vals))
		}
		for _, v := range vals {
			if !covered[v] {
				t.Fatalf("value %d not covered", v)
			}
		}
	}
}
