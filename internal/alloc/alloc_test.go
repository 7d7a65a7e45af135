package alloc

import "testing"

func TestAllocatorFirstFit(t *testing.T) {
	m := Machine{Groups: 4, NodesPerGroup: 8}
	a := NewAllocator(m, 1)
	j1, err := a.Allocate(10)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range j1 {
		if n != i {
			t.Fatalf("first fit on empty machine: %v", j1)
		}
	}
	if a.FreeNodes() != 22 {
		t.Fatalf("free %d", a.FreeNodes())
	}
	j2, err := a.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if j2[0] != 10 {
		t.Fatalf("second job starts at %d", j2[0])
	}
	a.Release(j1)
	if a.FreeNodes() != 28 {
		t.Fatalf("free after release %d", a.FreeNodes())
	}
	// Releasing twice is harmless.
	a.Release(j1)
	if a.FreeNodes() != 28 {
		t.Fatal("double release changed occupancy")
	}
	// Fragmentation: the next 12-node job skips the hole occupied by j2.
	j3, err := a.Allocate(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range j3 {
		for _, b := range j2 {
			if n == b {
				t.Fatal("allocated a busy node")
			}
		}
	}
}

func TestAllocatorErrors(t *testing.T) {
	a := NewAllocator(Machine{Groups: 1, NodesPerGroup: 4}, 1)
	if _, err := a.Allocate(0); err == nil {
		t.Error("zero request accepted")
	}
	if _, err := a.Allocate(5); err == nil {
		t.Error("oversized request accepted")
	}
}

func TestGroupsOf(t *testing.T) {
	m := Machine{Groups: 3, NodesPerGroup: 4}
	a := NewAllocator(m, 1)
	nodes, _ := a.Allocate(6)
	want := []int{0, 0, 0, 0, 1, 1}
	for i, g := range want {
		if m.GroupOf(nodes[i]) != g {
			t.Fatalf("node %d in group %d, want %d", nodes[i], m.GroupOf(nodes[i]), g)
		}
	}
	if (Job{Nodes: nodes}).SpannedGroups(m) != 2 {
		t.Fatal("spanned groups")
	}
	// A fragmented job counts the groups it touches, not the span from its
	// first to its last: nodes 1 and 9 sit in groups 0 and 2.
	if got := (Job{Nodes: []int{1, 9}}).SpannedGroups(m); got != 2 {
		t.Fatalf("spanned groups of a two-hole job %d, want 2", got)
	}
}

func TestWorkloadChurnsAndFragments(t *testing.T) {
	m := Machine{Groups: 24, NodesPerGroup: 124} // LUMI-like
	w := &Workload{
		A:        NewAllocator(m, 42),
		Sizes:    PowerOfTwoSizes(16, 1024),
		Lifetime: UniformLifetime(3, 40),
	}
	jobs := w.Run(500)
	if len(jobs) < 300 {
		t.Fatalf("only %d jobs placed", len(jobs))
	}
	// Fragmentation signature: at least some jobs get non-contiguous
	// node sets.
	fragmented := 0
	bigJobs := 0
	for _, j := range jobs {
		contiguous := true
		for i := 1; i < len(j.Nodes); i++ {
			if j.Nodes[i] != j.Nodes[i-1]+1 {
				contiguous = false
				break
			}
		}
		if !contiguous {
			fragmented++
		}
		if len(j.Nodes) >= 256 {
			bigJobs++
		}
	}
	if fragmented == 0 {
		t.Error("workload produced no fragmented allocations")
	}
	if bigJobs == 0 {
		t.Error("workload produced no large jobs")
	}
	// Larger jobs span more groups (the paper's Fig. 5 driver).
	for _, j := range jobs {
		if len(j.Nodes) >= 512 && j.SpannedGroups(m) < 2 {
			t.Errorf("a %d-node job spans %d group(s)", len(j.Nodes), j.SpannedGroups(m))
		}
	}
}

func TestPowerOfTwoSizes(t *testing.T) {
	f := PowerOfTwoSizes(16, 256)
	a := NewAllocator(Machine{Groups: 1, NodesPerGroup: 1}, 9)
	for i := 0; i < 200; i++ {
		s := f(a.rng)
		if s < 16 || s > 256 || s&(s-1) != 0 {
			t.Fatalf("size %d", s)
		}
	}
}
