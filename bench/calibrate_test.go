package main

import (
	"slices"
	"testing"
)

// The kernel is fixed work: it leaves the same sorted integers behind every
// time, allocates nothing, and its timing is positive.
func TestKernelIsFixedWork(t *testing.T) {
	c := newCalibrator()
	first := slices.Clone(c.ints)
	if !slices.IsSorted(first) {
		t.Fatalf("the kernel did not sort")
	}
	allocs := testing.AllocsPerRun(2, func() {
		if ms := c.kernel(); ms <= 0 {
			t.Errorf("kernel took %v ms", ms)
		}
	})
	if allocs != 0 {
		t.Errorf("the kernel allocates (%v per call): it would wake the benchmark's own collector", allocs)
	}
	if !slices.Equal(first, c.ints) {
		t.Errorf("two kernel calls sorted different integers")
	}
	if f := c.factor(3); f <= 0 {
		t.Errorf("host factor %v", f)
	}
}

// An operation is corrected by the mean of the bursts on both sides of it.
func TestPaceAveragesTheBurstsAroundAnOperation(t *testing.T) {
	p := newPace(newCalibrator(), 1, nil, 0)
	before := p.last
	f := p.next()
	if want := (before + p.last) / 2; f != want {
		t.Errorf("factor %v, want the mean %v of the bursts before (%v) and after (%v)", f, want, before, p.last)
	}
	if raw := newPace(nil, 0, nil, 0); raw.next() != 1 {
		t.Errorf("a pace of no kernel calls must leave times as the clock read them")
	}
}
