package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (the mean of the middle two for an
// even count); v is not modified. It returns 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s, n := sorted(v), len(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// beyondTail is how many samples must lie beyond a percentile before it is
// reported: fewer and the figure is one or two outliers, not a tail.
const beyondTail = 10

// highestPercentile returns the highest percentile of the ascending ladder
// that has at least beyondTail of n samples beyond it, or the lowest rung if
// none has.
func highestPercentile(n int, ladder []int) int {
	best := ladder[0]
	for _, p := range ladder {
		if float64(n)*float64(100-p)/100 >= beyondTail {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the acceptance rule for this benchmark uses. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread returns the distance between the quartiles of v as a share of its
// median: the run-to-run noise a bound is judged against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the 95th percentile of v where at least beyondTail samples
// lie beyond it, else the median (a few dozen samples have no tail to
// report).
func tail(v []float64) float64 {
	if highestPercentile(len(v), []int{50, 95}) == 95 {
		return percentile(v, 95)
	}
	return median(v)
}
