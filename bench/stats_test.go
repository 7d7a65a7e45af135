package main

import (
	"math"
	"testing"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ladder := []int{50, 90, 95, 99}
	for _, c := range []struct{ n, want int }{
		{3, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := highestPercentile(c.n, ladder); got != c.want {
			t.Errorf("highestPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	few := []float64{5, 1, 3, 100}
	if got := tail(few); got != median(few) {
		t.Errorf("tail of 4 samples = %v, want the median %v", got, median(few))
	}
	many := make([]float64, 400)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := tail(many); got != 380 {
		t.Errorf("tail of 1..400 = %v, want the 95th percentile 380", got)
	}
}

// The acceptance rule for the benchmark computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 7}, 2, 10},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10 (nearest rank)", got)
	}
}
