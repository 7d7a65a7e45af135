package core

import "testing"

func TestGatherRangePaperExamples(t *testing.T) {
	// Sec. 4.2: "in the first step of the scatter, rank 0 has [a,b] = [6,5]"
	// for p = 8, i.e. the full circular range starting at 6.
	r0 := ScatterRange(0, 8, 0)
	if r0.Start != 6 || r0.Len != 8 {
		t.Errorf("scatter start range %+v, want start 6 len 8", r0)
	}
	// Sec. 4.2: rank 0 sent the sub-buffer [2,5] in the gather's last step,
	// so before that merge it held [6,1].
	r2 := GatherRange(0, 8, 2)
	if r2.Start != 6 || r2.Len != 4 {
		t.Errorf("range after 2 merges %+v, want [6,1]", r2)
	}
	// Sec. 4.1: "at step 1, rank 0 with blocks [0,1] receives [6,7]".
	r1 := GatherRange(0, 8, 1)
	if r1.Start != 0 || r1.Len != 2 {
		t.Errorf("range after 1 merge %+v, want [0,1]", r1)
	}
}

func TestGatherRangesMatchSubtrees(t *testing.T) {
	// The closed-form range at a rank's send time must equal its subtree in
	// the distance-halving Bine tree — the two derivations of Sec. 4.1.
	for _, p := range []int{2, 4, 8, 16, 64, 256} {
		tr := MustTree(BineDH, p, 0)
		s := tr.Steps
		for r := 0; r < p; r++ {
			merges := s // root merges at every gather step
			if r != 0 {
				merges = s - 1 - tr.JoinStep[r]
			}
			got := GatherRange(r, p, merges)
			want := tr.SubtreeRanges(r)
			if len(want) != 1 {
				t.Fatalf("p=%d rank %d: subtree not a single run", p, r)
			}
			if got.Len == p && want[0].Len == p {
				continue // full ring: any start describes the same set
			}
			if got != want[0] {
				t.Errorf("p=%d rank %d: closed form %+v, subtree %+v", p, r, got, want[0])
			}
		}
	}
}

func TestGatherRangeGrowth(t *testing.T) {
	// Each merge doubles the holding: after t merges the range has 2^t
	// blocks.
	for _, p := range []int{8, 32, 128} {
		s := Log2Ceil(p)
		for r := 0; r < p; r += p/8 + 1 {
			for steps := 0; steps <= s; steps++ {
				if got, want := GatherRange(r, p, steps).Len, 1<<uint(steps); got != want {
					t.Fatalf("p=%d r=%d steps=%d: len %d want %d", p, r, steps, got, want)
				}
			}
		}
	}
}

func TestScatterRangeShrinks(t *testing.T) {
	p := 16
	s := Log2Ceil(p)
	prev := ScatterRange(0, p, 0)
	if prev.Len != p {
		t.Fatalf("scatter starts with %d blocks", prev.Len)
	}
	for step := 1; step <= s; step++ {
		cur := ScatterRange(0, p, step)
		if cur.Len*2 != prev.Len {
			t.Fatalf("step %d: len %d after %d", step, cur.Len, prev.Len)
		}
		// The remaining range is a sub-range of the previous one.
		for _, m := range members(cur, p) {
			if !prev.Contains(m, p) {
				t.Fatalf("step %d: block %d appeared from nowhere", step, m)
			}
		}
		prev = cur
	}
}

func TestGatherDirectionAlternation(t *testing.T) {
	// Rank 3 (odd, p=8) first merges {2} (down), then {4,5} (up).
	if r := GatherRange(3, 8, 1); r.Start != 2 || r.Len != 2 {
		t.Errorf("rank 3 after 1 merge: %+v", r)
	}
	if r := GatherRange(3, 8, 2); r.Start != 2 || r.Len != 4 {
		t.Errorf("rank 3 after 2 merges: %+v", r)
	}
}
