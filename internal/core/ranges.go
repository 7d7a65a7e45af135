package core

// Closed-form buffer-range arithmetic for Bine gather and scatter
// (Sec. 4.1–4.2). During a distance-halving Bine gather every rank's block
// holding is a circular range [a, b]; even ranks first extend downward,
// odd ranks upward, alternating each step. The paper derives the final
// range by adding/subtracting the alternating bit patterns 0101…01 and
// 1010…10 to the rank identifier. These functions provide that closed form;
// the tree-based collectives compute the same sets by subtree enumeration,
// and TestGatherRangesMatchSubtrees proves the two agree.

// GatherRange returns the circular block range [a, b] rank r of a p-rank
// distance-halving Bine gather holds after the given number of completed
// steps (0 ≤ steps ≤ s), for the tree rooted at 0. After 0 steps the range
// is [r, r]; after s steps rank 0 holds all p blocks.
//
// At gather step t (counting from 0), the rank that is still active merges
// the subtree gathered by its step-t child, of size 2^t. Following the
// paper's closed form, even ranks add 2^0+2^2+… to b and subtract
// 2^1+2^3+… from a (terms in increasing order, so the directions
// alternate starting upward); odd ranks mirror. The result is only
// meaningful while the rank is still active, i.e. steps ≤ s−1−joinStep(r)
// for non-root ranks.
func GatherRange(r, p, steps int) CircRange {
	s := Log2Ceil(p)
	if steps > s {
		steps = s
	}
	a, b := r, r // inclusive circular range
	up := r%2 == 0
	for t := 0; t < steps; t++ {
		grow := 1 << uint(t)
		if up {
			b = Mod(b+grow, p)
		} else {
			a = Mod(a-grow, p)
		}
		up = !up
	}
	return CircRange{Start: a, Len: Mod(b-a, p) + 1}
}

// ScatterRange returns the circular block range rank r still has to
// distribute at the given scatter step of a distance-halving Bine scatter
// rooted at 0 (step 0 = before any send). It is GatherRange run backwards:
// the scatter's starting range equals the gather's final one.
func ScatterRange(r, p, step int) CircRange {
	s := Log2Ceil(p)
	if step > s {
		step = s
	}
	return GatherRange(r, p, s-step)
}
