package core

import "testing"

func TestTorusCoordRoundTrip(t *testing.T) {
	for _, tor := range []Torus{MustTorus(4), MustTorus(2, 3), MustTorus(4, 4, 4), MustTorus(2, 4, 8, 2)} {
		p := tor.P()
		for r := 0; r < p; r++ {
			if back := tor.Rank(tor.Coord(r)); back != r {
				t.Fatalf("%v: rank %d round trips to %d", tor.Dims, r, back)
			}
		}
	}
}

func TestTorusDisplace(t *testing.T) {
	tor := MustTorus(4, 4)
	if tor.Displace(0, 0, -1) != 12 {
		t.Error("wrap in dim 0")
	}
	if tor.Displace(0, 1, 1) != 1 {
		t.Error("step in dim 1")
	}
	if tor.Displace(15, 1, 1) != 12 {
		t.Error("wrap in dim 1")
	}
}

func TestTorusLine(t *testing.T) {
	tor := MustTorus(2, 4)
	line := tor.Line(5, 1) // rank 5 = (1,1); dim-1 line of row 1
	want := []int{4, 5, 6, 7}
	for i, w := range want {
		if line[i] != w {
			t.Fatalf("line %v, want %v", line, want)
		}
	}
	line = tor.Line(5, 0) // dim-0 line of column 1
	if line[0] != 1 || line[1] != 5 {
		t.Fatalf("dim-0 line %v", line)
	}
}

func TestTorusDFSPostorder(t *testing.T) {
	for _, tor := range []Torus{MustTorus(4, 4), MustTorus(2, 4), MustTorus(2, 2, 2), MustTorus(2, 6)} {
		p := tor.P()
		perm, inv, err := tor.DFSPostorder()
		if err != nil {
			t.Fatalf("%v: %v", tor.Dims, err)
		}
		seen := make([]bool, p)
		for r := 0; r < p; r++ {
			if perm[r] < 0 || perm[r] >= p || seen[perm[r]] {
				t.Fatalf("%v: perm not a permutation", tor.Dims)
			}
			seen[perm[r]] = true
			if inv[perm[r]] != r {
				t.Fatalf("%v: inverse mismatch", tor.Dims)
			}
		}
		// Postorder property: the root of the whole composite tree (rank 0)
		// must be visited last.
		if perm[0] != p-1 {
			t.Errorf("%v: root position %d, want %d", tor.Dims, perm[0], p-1)
		}
	}
}

func TestTorusErrors(t *testing.T) {
	if _, err := NewTorus(); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewTorus(4, 0); err == nil {
		t.Error("zero dim accepted")
	}
}
