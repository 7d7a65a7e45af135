package core

import (
	"fmt"
	"sort"
)

// Kind identifies a spanning-tree construction family.
type Kind int

const (
	// BineDH is the distance-halving Bine tree of Sec. 2.3: distances
	// between communicating ranks shrink by roughly half at every step.
	BineDH Kind = iota
	// BineDD is the distance-doubling Bine tree of Sec. 3.2 / Appendix A.
	BineDD
	// BinomialDD is the standard distance-doubling binomial tree used by
	// Open MPI: the root first talks to rank root+1, then root+2, root+4, …
	BinomialDD
	// BinomialDH is the standard distance-halving binomial tree used by
	// MPICH: the root first talks to rank root+p/2, then root+p/4, …
	BinomialDH
)

// String returns the conventional short name of the tree kind.
func (k Kind) String() string {
	switch k {
	case BineDH:
		return "bine-dh"
	case BineDD:
		return "bine-dd"
	case BinomialDD:
		return "binomial-dd"
	case BinomialDH:
		return "binomial-dh"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Edge is a directed parent→child communication edge of a tree, annotated
// with the step at which the transfer happens in a root-to-leaves traversal
// (broadcast order). In a leaves-to-root traversal (gather, reduce) the same
// edge fires at step Steps−1−Step with the direction reversed.
type Edge struct {
	Step  int
	Child int
}

// Tree is a rooted spanning tree over p ranks together with its step
// schedule. Trees are immutable after construction and safe for concurrent
// use.
type Tree struct {
	Kind  Kind
	P     int
	Root  int
	Steps int

	// Parent[r] is the parent of rank r, or −1 for the root.
	Parent []int
	// JoinStep[r] is the step at which rank r receives from its parent in
	// a broadcast; −1 for the root.
	JoinStep []int
	// Children[r] lists r's outgoing edges ordered by ascending step.
	Children [][]Edge
}

// partnerFunc returns the destination rank (relative to a root at 0) that a
// relative rank r, already part of the tree, sends to at the given step; it
// may return an out-of-range value (binomial trees on non-power-of-two p)
// or an already-reached rank (Bine trees on even non-power-of-two p, see
// Appendix C); the builder skips such edges.
type partnerFunc func(rrel, step int) int

// NewTree builds a tree of the given kind over p ranks rooted at root.
//
// Power-of-two p uses the exact constructions of the paper. Even
// non-power-of-two p uses Appendix C's duplicate-prune technique for Bine
// kinds. Odd p (Bine kinds) falls back to the classic fold: the tree is built
// over p' = 2^floor(log2 p) ranks and each remaining rank is attached as a
// leaf of rank r−p' in one extra final step. Binomial kinds handle any p
// directly by skipping out-of-range partners.
func NewTree(kind Kind, p, root int) (*Tree, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: tree over %d ranks", p)
	}
	if root < 0 || root >= p {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, p)
	}
	if p == 1 {
		return &Tree{Kind: kind, P: 1, Root: root, Steps: 0,
			Parent: []int{-1}, JoinStep: []int{-1}, Children: [][]Edge{nil}}, nil
	}
	isBine := kind == BineDH || kind == BineDD
	_, pow2 := Log2(p)
	if isBine && !pow2 && p%2 == 1 {
		return foldedTree(kind, p, root)
	}
	s := Log2Ceil(p)
	t := &Tree{Kind: kind, P: p, Root: root, Steps: s}
	t.build(partnerFor(kind, p, s))
	if !t.spanning() {
		if isBine {
			// Safety net: Appendix C's prune rule is stated for even p;
			// if a pathological even p fails to span, fall back to fold.
			return foldedTree(kind, p, root)
		}
		return nil, fmt.Errorf("core: %v tree over p=%d did not span", kind, p)
	}
	return t, nil
}

// MustTree is NewTree, panicking on error; intended for power-of-two p in
// tests and examples.
func MustTree(kind Kind, p, root int) *Tree {
	t, err := NewTree(kind, p, root)
	if err != nil {
		panic(err)
	}
	return t
}

func partnerFor(kind Kind, p, s int) partnerFunc {
	switch kind {
	case BineDH:
		// Eq. 1: at step i, rank r sends to the rank whose negabinary
		// representation differs in the s−i least significant bits.
		return func(rrel, step int) int {
			nb := RankToNB(rrel, p)
			return NBToRank(nb^Ones(s-step), p)
		}
	case BineDD:
		// Eq. 5: q = r ± Σ_{k=0}^{j}(−2)^k mod p (+ for even r, − for odd).
		return func(rrel, step int) int {
			d := int(BineDelta(step))
			if rrel%2 == 0 {
				return Mod(rrel+d, p)
			}
			return Mod(rrel-d, p)
		}
	case BinomialDD:
		return func(rrel, step int) int {
			q := rrel + (1 << uint(step))
			if q >= p {
				return -1
			}
			return q
		}
	case BinomialDH:
		return func(rrel, step int) int {
			q := rrel + (1 << uint(s-1-step))
			if q >= p {
				return -1
			}
			return q
		}
	}
	panic("core: unknown tree kind")
}

// build runs the step-by-step BFS construction shared by all kinds: at every
// step each rank already in the tree computes its designated partner and
// adopts it as a child unless it was already reached (Appendix C's prune) or
// out of range.
func (t *Tree) build(partner partnerFunc) {
	p, root, s := t.P, t.Root, t.Steps
	t.Parent = make([]int, p)
	t.JoinStep = make([]int, p)
	t.Children = make([][]Edge, p)
	for r := range t.Parent {
		t.Parent[r] = -1
		t.JoinStep[r] = -1
	}
	reached := make([]bool, p)
	reached[root] = true
	order := []int{root} // ranks in join order; join order is BFS order
	for step := 0; step < s; step++ {
		// Snapshot: only ranks joined before this step send during it.
		joined := len(order)
		for idx := 0; idx < joined; idx++ {
			sender := order[idx]
			if sender != root && t.JoinStep[sender] >= step {
				continue
			}
			rrel := Mod(sender-root, p)
			qrel := partner(rrel, step)
			if qrel < 0 || qrel >= p {
				continue
			}
			q := Mod(qrel+root, p)
			if reached[q] {
				continue // Appendix C: prune the subtree reached later.
			}
			reached[q] = true
			t.Parent[q] = sender
			t.JoinStep[q] = step
			t.Children[sender] = append(t.Children[sender], Edge{Step: step, Child: q})
			order = append(order, q)
		}
	}
	return
}

func (t *Tree) spanning() bool {
	n := 1 // root
	for r := 0; r < t.P; r++ {
		if r != t.Root && t.Parent[r] >= 0 {
			n++
		}
	}
	return n == t.P
}

// foldedTree builds a Bine tree over p' = 2^floor(log2 p) ranks and attaches
// the remaining p−p' ranks as leaves in one extra final step: extra rank
// root+p'+i is served by root+i (Appendix C's fallback for odd p).
func foldedTree(kind Kind, p, root int) (*Tree, error) {
	pp := 1 << uint(Log2Floor(p))
	inner, err := NewTree(kind, pp, 0)
	if err != nil {
		return nil, err
	}
	s := inner.Steps
	t := &Tree{Kind: kind, P: p, Root: root, Steps: s + 1}
	t.Parent = make([]int, p)
	t.JoinStep = make([]int, p)
	t.Children = make([][]Edge, p)
	abs := func(rel int) int { return Mod(rel+root, p) }
	for rel := 0; rel < pp; rel++ {
		r := abs(rel)
		if rel == 0 {
			t.Parent[r] = -1
			t.JoinStep[r] = -1
		} else {
			t.Parent[r] = abs(inner.Parent[rel])
			t.JoinStep[r] = inner.JoinStep[rel]
		}
		for _, e := range inner.Children[rel] {
			t.Children[r] = append(t.Children[r], Edge{Step: e.Step, Child: abs(e.Child)})
		}
	}
	for rel := pp; rel < p; rel++ {
		r, parent := abs(rel), abs(rel-pp)
		t.Parent[r] = parent
		t.JoinStep[r] = s
		t.Children[parent] = append(t.Children[parent], Edge{Step: s, Child: r})
	}
	return t, nil
}

// Subtree returns the set of ranks in the subtree rooted at r (including r),
// in ascending rank order.
func (t *Tree) Subtree(r int) []int {
	var out []int
	var walk func(int)
	walk = func(v int) {
		out = append(out, v)
		for _, e := range t.Children[v] {
			walk(e.Child)
		}
	}
	walk(r)
	sort.Ints(out)
	return out
}

// SubtreeRanges returns the ranks of the subtree rooted at r grouped into
// maximal circularly contiguous runs over the ring [0, p). Distance-halving
// Bine subtrees always form a single run (Sec. 2.3.3 / Fig. 7);
// distance-doubling subtrees generally do not (Sec. 3.2.3), which is exactly
// the non-contiguity the strategies of Sec. 4.3.1 deal with.
func (t *Tree) SubtreeRanges(r int) []CircRange {
	return CircRuns(t.Subtree(r), t.P)
}

// Depth returns the number of edges on the path from the root to rank r.
func (t *Tree) Depth(r int) int {
	d := 0
	for v := r; t.Parent[v] >= 0; v = t.Parent[v] {
		d++
	}
	return d
}

// StepSenders returns, for the given broadcast step, all (sender, receiver)
// pairs active at that step, in deterministic order.
func (t *Tree) StepSenders(step int) [][2]int {
	var out [][2]int
	for r := 0; r < t.P; r++ {
		for _, e := range t.Children[r] {
			if e.Step == step {
				out = append(out, [2]int{r, e.Child})
			}
		}
	}
	return out
}

// CircRange is a circularly contiguous run of ranks (or block indices) on the
// ring [0, P): the members are Start, Start+1, …, Start+Len−1, all modulo P.
type CircRange struct {
	Start, Len int
}

// Contains reports whether v lies within the run on a ring of p elements.
func (c CircRange) Contains(v, p int) bool {
	return Mod(v-c.Start, p) < c.Len
}

// CircRuns groups a set of distinct values in [0, p) into maximal circularly
// contiguous runs, ordered by ascending start. The input need not be sorted.
func CircRuns(vals []int, p int) []CircRange {
	if len(vals) == 0 {
		return nil
	}
	if len(vals) == p {
		return []CircRange{{Start: 0, Len: p}}
	}
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	var runs []CircRange
	start, length := sorted[0], 1
	for _, v := range sorted[1:] {
		if v == start+length {
			length++
			continue
		}
		runs = append(runs, CircRange{Start: start, Len: length})
		start, length = v, 1
	}
	runs = append(runs, CircRange{Start: start, Len: length})
	// Merge a wrap-around: last run ending at p−1 joins a first run starting
	// at 0.
	if len(runs) > 1 {
		first, last := runs[0], runs[len(runs)-1]
		if first.Start == 0 && last.Start+last.Len == p {
			runs = runs[1 : len(runs)-1]
			runs = append(runs, CircRange{Start: last.Start, Len: last.Len + first.Len})
		}
	}
	return runs
}
