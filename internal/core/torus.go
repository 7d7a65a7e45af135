package core

import "fmt"

// Torus describes a k-dimensional torus rank geometry (Appendix D). Ranks
// are laid out row-major: rank = ((c0·d1 + c1)·d2 + c2)·…, so the last
// dimension varies fastest. The paper's Fugaku jobs are 3-D sub-tori of the
// 6-D Tofu-D network; any dimensionality is supported here.
type Torus struct {
	Dims []int
}

// NewTorus validates the dimension sizes and returns the geometry.
func NewTorus(dims ...int) (Torus, error) {
	if len(dims) == 0 {
		return Torus{}, fmt.Errorf("core: torus needs at least one dimension")
	}
	for _, d := range dims {
		if d <= 0 {
			return Torus{}, fmt.Errorf("core: torus dimension %d", d)
		}
	}
	return Torus{Dims: append([]int(nil), dims...)}, nil
}

// MustTorus is NewTorus, panicking on error.
func MustTorus(dims ...int) Torus {
	t, err := NewTorus(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// P returns the total number of ranks of the torus.
func (t Torus) P() int {
	p := 1
	for _, d := range t.Dims {
		p *= d
	}
	return p
}

// NDims returns the number of dimensions.
func (t Torus) NDims() int { return len(t.Dims) }

// Coord returns the coordinates of rank r.
func (t Torus) Coord(r int) []int {
	c := make([]int, len(t.Dims))
	for i := len(t.Dims) - 1; i >= 0; i-- {
		c[i] = r % t.Dims[i]
		r /= t.Dims[i]
	}
	return c
}

// Rank returns the rank at the given coordinates (taken modulo each
// dimension, so out-of-range coordinates wrap around the torus).
func (t Torus) Rank(coord []int) int {
	r := 0
	for i, d := range t.Dims {
		r = r*d + Mod(coord[i], d)
	}
	return r
}

// Displace returns the rank reached from r by moving delta positions along
// dimension dim (wrapping around).
func (t Torus) Displace(r, dim, delta int) int {
	c := t.Coord(r)
	c[dim] = Mod(c[dim]+delta, t.Dims[dim])
	return t.Rank(c)
}

// DimStride returns the rank-id stride of one step along dimension dim.
func (t Torus) DimStride(dim int) int {
	s := 1
	for i := dim + 1; i < len(t.Dims); i++ {
		s *= t.Dims[i]
	}
	return s
}

// Line returns the ranks obtained by sweeping dimension dim while keeping
// the other coordinates of r fixed, starting at coordinate 0 of that
// dimension. The result has length Dims[dim] and Line[i] is the rank at
// coordinate i. This is the 1-D sub-communicator used by the per-dimension
// torus-optimized collectives of Appendix D.
func (t Torus) Line(r, dim int) []int {
	c := t.Coord(r)
	out := make([]int, t.Dims[dim])
	for i := range out {
		c[dim] = i
		out[i] = t.Rank(c)
	}
	return out
}

// DFSPostorder returns the block permutation of Appendix D.2: blocks are
// renumbered according to a depth-first postorder traversal of the
// torus-optimized distance-halving Bine tree rooted at rank 0, so that every
// subtree's blocks become contiguous. perm[block] is the new position of the
// block; inv is the inverse permutation.
//
// The torus-optimized tree visits dimensions in ascending order; within each
// dimension the children follow the 1-D Bine tree of that dimension's size.
func (t Torus) DFSPostorder() (perm, inv []int, err error) {
	p := t.P()
	trees := make([]*Tree, t.NDims())
	for d, size := range t.Dims {
		trees[d], err = NewTree(BineDH, size, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("core: torus dimension %d: %w", d, err)
		}
	}
	perm = make([]int, p)
	inv = make([]int, p)
	next := 0
	// The composite tree: rank r's children are, for each dimension d,
	// the per-dimension tree children of its coordinate c[d] — but only in
	// dimensions ≥ the dimension where r diverged from the root prefix.
	var walk func(coord []int, fromDim int)
	walk = func(coord []int, fromDim int) {
		for d := fromDim; d < t.NDims(); d++ {
			var sub func(cd int, dim int)
			sub = func(cd, dim int) {
				for _, e := range trees[dim].Children[cd] {
					child := append([]int(nil), coord...)
					child[dim] = e.Child
					walk(child, dim)
				}
			}
			sub(coord[d], d)
		}
		r := t.Rank(coord)
		perm[r] = next
		inv[next] = r
		next++
	}
	walk(make([]int, t.NDims()), 0)
	if next != p {
		return nil, nil, fmt.Errorf("core: DFS postorder visited %d of %d ranks", next, p)
	}
	return perm, inv, nil
}
