package span

import (
	"math"
	"testing"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	r := New("w")
	r.spans = []Span{
		{ID: 1, Name: "window", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 7},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 9, End: 12}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a.child", Start: 2, End: 3},
	}
	want := map[int]float64{1: 10 - (6 + 1), 2: 3, 3: 4, 4: 3, 5: 1}
	for _, s := range r.Spans() {
		if math.Abs(s.Self-want[s.ID]) > 1e-12 {
			t.Errorf("span %d (%s): self %v, want %v", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestGraftRenumbersAndShifts(t *testing.T) {
	r := New("w")
	parent := r.Start(0, "probe")
	r.End(parent)
	r.Graft(parent, []Span{{ID: 1, Name: "x", Start: 0, End: 1}, {ID: 2, Parent: 1, Name: "y", Start: 0.25, End: 0.5}}, 100)
	got := r.Spans()
	if len(got) != 3 || got[1].ID != 2 || got[1].Parent != parent || got[2].Parent != 2 {
		t.Fatalf("grafted spans misnumbered: %+v", got)
	}
	if got[1].Start != 100 || got[2].End != 100.5 || got[1].Workload != "w" {
		t.Errorf("grafted spans not shifted onto the recorder's clock: %+v", got[1:])
	}
	if got[1].Self != 0.75 {
		t.Errorf("grafted parent self %v, want 0.75", got[1].Self)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	r.End(r.Start(0, "x"))
	r.Graft(0, []Span{{ID: 1}}, 0)
	if r.Spans() != nil || r.Now() != 0 {
		t.Errorf("a nil recorder must be inert")
	}
}
