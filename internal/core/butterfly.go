package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// ButterflyKind identifies a butterfly (pairwise-exchange) schedule family.
type ButterflyKind int

const (
	// BflyBineDH is the distance-halving Bine butterfly of Sec. 3.1
	// (Eq. 4): distances shrink roughly by half at each step. Used by the
	// "two transmissions" strategy of Sec. 4.3.1.
	BflyBineDH ButterflyKind = iota
	// BflyBineDD is the distance-doubling Bine butterfly (Eq. 5 /
	// Appendix A): distances grow, so the early, data-heavy steps of a
	// reduce-scatter stay local. The Bine allgather is its exact reverse.
	BflyBineDD
	// BflyBinomialDH is the classic recursive-halving butterfly: at step i
	// ranks exchange with the partner differing in bit s−1−i, so the first
	// exchange spans distance p/2.
	BflyBinomialDH
	// BflyBinomialDD is the classic recursive-doubling butterfly: at step i
	// ranks exchange with the partner differing in bit i.
	BflyBinomialDD
	// BflySwing is the Swing schedule (De Sensi et al., NSDI'24), which the
	// paper compares against: same ±Σ(−2)^k distances as the
	// distance-doubling Bine butterfly, but its blocks are always
	// transmitted non-contiguously (no permute/send optimization applies).
	BflySwing
)

// String returns the conventional short name of the butterfly kind.
func (k ButterflyKind) String() string {
	switch k {
	case BflyBineDH:
		return "bfly-bine-dh"
	case BflyBineDD:
		return "bfly-bine-dd"
	case BflyBinomialDH:
		return "bfly-binomial-dh"
	case BflyBinomialDD:
		return "bfly-binomial-dd"
	case BflySwing:
		return "bfly-swing"
	}
	return fmt.Sprintf("ButterflyKind(%d)", int(k))
}

// IsBine reports whether the kind uses Bine (negabinary) partner schedules,
// as opposed to classic binomial bit flips.
func (k ButterflyKind) IsBine() bool {
	return k == BflyBineDH || k == BflyBineDD || k == BflySwing
}

// Butterfly describes a p-rank pairwise exchange schedule: at every one of
// the s = log2(p) steps each rank exchanges data with exactly one partner,
// and the pairing is symmetric (Partner(Partner(r, i), i) == r).
//
// A Bine butterfly is the superposition of p Bine trees: even rank r runs
// the tree rooted at 0 rotated right by r positions, odd rank r runs it
// mirrored (Sec. 3.1). Block bookkeeping therefore works on rank *offsets*
// from each rank: rank r owns/sends blocks r±a, with the offset sets defined
// by the negabinary representation of a (distance-halving) or by ν(a)
// (distance-doubling). Binomial butterflies use the classic absolute-index
// hypercube bookkeeping.
type Butterfly struct {
	Kind ButterflyKind
	P    int
	S    int

	// For Bine kinds: per-step offset sets, precomputed at construction
	// (they are rank-independent). sendOff[i] lists the offsets a whose
	// blocks are transmitted at step i; keepOff[i] lists the offsets still
	// owned after step i. Both are in deterministic (ascending offset)
	// order.
	sendOff, keepOff [][]int

	// sendRun[i] is sendOff[i] as the one circular run it forms for
	// BflyBineDH (checked at construction), so SendRuns is O(1).
	sendRun []CircRange

	// pos[blk] is PermutedPosition(blk), tabulated at construction: the
	// contiguous-range strategies look it up at every step.
	pos []int
}

// NewButterfly builds a butterfly schedule over p ranks; p must be a power
// of two (non-power-of-two collectives fold to a power of two before using a
// butterfly, following Appendix C).
func NewButterfly(kind ButterflyKind, p int) (*Butterfly, error) {
	s, ok := Log2(p)
	if !ok {
		return nil, fmt.Errorf("core: butterfly over non-power-of-two p=%d", p)
	}
	switch kind {
	case BflyBineDH, BflyBineDD, BflyBinomialDH, BflyBinomialDD, BflySwing:
	default:
		return nil, fmt.Errorf("core: unknown butterfly kind %v", kind)
	}
	b := &Butterfly{Kind: kind, P: p, S: s, pos: make([]int, p)}
	for blk := range b.pos {
		b.pos[blk] = b.permute(blk)
	}
	if kind.IsBine() {
		b.sendOff = make([][]int, s)
		b.keepOff = make([][]int, s)
		kept := make([]int, 0, p)
		for a := 0; a < p; a++ {
			kept = append(kept, a)
		}
		for i := 0; i < s; i++ {
			var nextKept []int
			for _, a := range kept {
				switch {
				case b.offsetSent(a, i):
					b.sendOff[i] = append(b.sendOff[i], a)
				case b.offsetKeeps(a, i):
					nextKept = append(nextKept, a)
				}
			}
			kept = nextKept
			b.keepOff[i] = kept
			if kind == BflyBineDH {
				runs := CircRuns(b.sendOff[i], p)
				if len(runs) != 1 {
					return nil, fmt.Errorf("core: %v p=%d step %d sends %d offset runs, want 1", kind, p, i, len(runs))
				}
				b.sendRun = append(b.sendRun, runs[0])
			}
		}
	}
	return b, nil
}

// AppendSendBlocks appends rank r's step-i transmitted blocks to dst in the
// fixed order both peers can derive independently (no sorting): ascending
// offset for Bine kinds, ascending block for binomial ones.
func (b *Butterfly) AppendSendBlocks(dst []int, r, i int) []int {
	if !b.Kind.IsBine() {
		// Blocks matching r on all previous step bits and matching the
		// partner on the current one.
		mask := b.binomialMask(i)
		return b.appendMaskedBlocks(dst, mask, r&mask^1<<uint(b.binomialBit(i)))
	}
	for _, a := range b.sendOff[i] {
		dst = append(dst, b.blockAt(r, a))
	}
	return dst
}

// SendRuns appends rank r's step-i send set to dst as maximal circular
// block runs. A BflyBineDH send set is one run whose start is closed-form:
// its offsets are the run [a0, a0+n), so it is [r+a0, r+a0+n) for even r and
// [r−a0−n+1, r−a0] for odd r (mod p). Other kinds group SendSet.
func (b *Butterfly) SendRuns(dst []CircRange, r, i int) []CircRange {
	if b.Kind != BflyBineDH {
		return append(dst, CircRuns(b.SendSet(r, i), b.P)...)
	}
	run := b.sendRun[i]
	start := r + run.Start
	if r%2 != 0 {
		start = r - run.Start - run.Len + 1
	}
	return append(dst, CircRange{Start: Mod(start, b.P), Len: run.Len})
}

// MustButterfly is NewButterfly, panicking on error.
func MustButterfly(kind ButterflyKind, p int) *Butterfly {
	b, err := NewButterfly(kind, p)
	if err != nil {
		panic(err)
	}
	return b
}

// Partner returns the rank that r exchanges with at step i ∈ [0, S).
//
// Bine kinds evaluate the paper's closed forms — Eq. 4 (distance-halving)
// and Eq. 5 (distance-doubling): q = (r ± δ) mod p with + for even and − for
// odd ranks. Binomial kinds flip the step bit of the rank index.
func (b *Butterfly) Partner(r, i int) int {
	switch b.Kind {
	case BflyBineDH:
		return b.signed(r, int(BineDeltaDH(i, b.S)))
	case BflyBineDD, BflySwing:
		return b.signed(r, int(BineDelta(i)))
	case BflyBinomialDH:
		return r ^ (1 << uint(b.S-1-i))
	default: // BflyBinomialDD
		return r ^ (1 << uint(i))
	}
}

func (b *Butterfly) signed(r, d int) int {
	if r%2 == 0 {
		return Mod(r+d, b.P)
	}
	return Mod(r-d, b.P)
}

// ModDistAt returns the modular distance between partners at step i (the
// same for every rank of the step).
func (b *Butterfly) ModDistAt(i int) int {
	return ModDist(0, b.Partner(0, i), b.P)
}

// offsetKeeps reports whether offset a (from the owning rank) is still owned
// after step i of a reduce-scatter running down this butterfly.
//
// Distance-doubling (Sec. 3.2.3): the kept offsets are those whose ν has the
// i+1 least significant bits all zero; the offsets sent at step i have those
// bits equal to 2^i (the ν suffix of the step-i child's subtree).
// Distance-halving (Sec. 2.3.3): the same with the i+1 *most* significant
// negabinary bits.
func (b *Butterfly) offsetKeeps(a, i int) bool {
	switch b.Kind {
	case BflyBineDD, BflySwing:
		return Nu(a, b.P)&Ones(i+1) == 0
	case BflyBineDH:
		return RankToNB(a, b.P)>>uint(b.S-1-i) == 0
	}
	panic("core: offsetKeeps on binomial butterfly")
}

func (b *Butterfly) offsetSent(a, i int) bool {
	switch b.Kind {
	case BflyBineDD, BflySwing:
		return Nu(a, b.P)&Ones(i+1) == 1<<uint(i)
	case BflyBineDH:
		return RankToNB(a, b.P)>>uint(b.S-1-i) == 1
	}
	panic("core: offsetSent on binomial butterfly")
}

// blockAt maps an offset a to the absolute block index for rank r: r+a for
// even ranks, r−a for odd ranks (mirrored trees, Sec. 3.1).
func (b *Butterfly) blockAt(r, a int) int {
	if r%2 == 0 {
		return Mod(r+a, b.P)
	}
	return Mod(r-a, b.P)
}

func (b *Butterfly) binomialBit(i int) int {
	if b.Kind == BflyBinomialDH {
		return b.S - 1 - i
	}
	return i
}

// SendSet returns the blocks rank r transmits to its partner at step i of a
// reduce-scatter, in ascending block-index order. Block blk is the block
// destined for rank blk; SendSet(r, i) ∪ KeepSet(r, i) = KeepSet(r, i−1).
// The slice is freshly allocated: callers may modify it.
//
// For an allgather run as the mirror image (step order reversed, data
// growing) the same sets describe the blocks received.
func (b *Butterfly) SendSet(r, i int) []int {
	if b.Kind.IsBine() {
		return b.sortedBlocks(r, b.sendOff[i])
	}
	return b.AppendSendBlocks(nil, r, i) // binomial send blocks ascend
}

// KeepSet returns the blocks rank r still owns after steps 0..i of a
// reduce-scatter (ascending block-index order, freshly allocated).
// KeepSet(r, −1) is every block.
func (b *Butterfly) KeepSet(r, i int) []int {
	if i < 0 {
		return b.appendMaskedBlocks(nil, 0, 0)
	}
	if b.Kind.IsBine() {
		return b.sortedBlocks(r, b.keepOff[i])
	}
	mask := b.binomialMask(i)
	return b.appendMaskedBlocks(nil, mask, r&mask)
}

// sortedBlocks maps an ascending offset table to rank r's blocks in
// ascending block order without sorting: r+a (even r) ascends with one wrap
// past p−1, r−a (odd r) descends with one wrap below 0, so the sorted
// sequence is the wrapped part followed by the unwrapped one, the odd case
// read backwards.
func (b *Butterfly) sortedBlocks(r int, off []int) []int {
	out := make([]int, len(off))
	n := len(off)
	if r%2 == 0 {
		w := n // first offset whose block wraps: r+a ≥ p
		for w > 0 && r+off[w-1] >= b.P {
			w--
		}
		for k, a := range off[w:] {
			out[k] = r + a - b.P
		}
		for k, a := range off[:w] {
			out[n-w+k] = r + a
		}
		return out
	}
	w := 0 // first offset whose block wraps: r−a < 0
	for w < n && off[w] <= r {
		w++
	}
	for k := 0; k < w; k++ {
		out[k] = r - off[w-1-k]
	}
	for k := w; k < n; k++ {
		out[k] = r - off[n-1-(k-w)] + b.P
	}
	return out
}

// binomialMask has the bits fixed by steps 0..i of a binomial butterfly set.
func (b *Butterfly) binomialMask(i int) int {
	if b.Kind == BflyBinomialDH {
		return int(Ones(i+1)) << uint(b.S-1-i)
	}
	return int(Ones(i + 1))
}

// appendMaskedBlocks appends, ascending, the blocks in [0, P) that equal val
// on the bits of mask.
func (b *Butterfly) appendMaskedBlocks(dst []int, mask, val int) []int {
	free := (b.P - 1) &^ mask
	dst = slices.Grow(dst, b.P>>uint(bits.OnesCount(uint(mask))))
	for x := 0; ; {
		dst = append(dst, val|x)
		if x = (x - free) & free; x == 0 {
			return dst
		}
	}
}

// PermutedPosition returns where the permute strategy of Sec. 4.3.1 places
// block blk: position reverse(ν(blk)) for Bine kinds, which turns every
// distance-doubling send set into a contiguous position range (Fig. 8). For
// binomial kinds the identity placement is already contiguous under the
// recursive-halving bit order and is returned unchanged.
func (b *Butterfly) PermutedPosition(blk int) int { return b.pos[blk] }

func (b *Butterfly) permute(blk int) int {
	switch b.Kind {
	case BflyBineDH, BflyBineDD, BflySwing:
		return int(Reverse(Nu(blk, b.P), b.S))
	case BflyBinomialDD:
		// The recursive-doubling bit order walks bits LSB-first; reversing
		// the block index makes its halves contiguous, mirroring the Bine
		// case.
		return int(Reverse(uint64(blk), b.S))
	default:
		return blk
	}
}

// PermutedInverse returns the block stored at the given permuted position.
func (b *Butterfly) PermutedInverse(pos int) int {
	switch b.Kind {
	case BflyBineDH, BflyBineDD, BflySwing:
		return NuInverse(Reverse(uint64(pos), b.S), b.P)
	case BflyBinomialDD:
		return int(Reverse(uint64(pos), b.S))
	default:
		return pos
	}
}
