package main

import (
	"sort"
	"time"

	"binetrees/bench/span"
)

// The reference host is two cores of a shared machine whose speed drifts:
// over a quarter of an hour the same command's wall and CPU time move
// together by a fifth, in spells of seconds to minutes, with the neighbours'
// load. A fixed piece of work timed beside every operation moves with them
// (correlation 0.9 over 20 s windows, README.md "Host-speed correction"), so
// every time the benchmark reports is divided by the host factor measured
// around it: the time the fixed work took, over what it takes on the
// reference host on a quiet day. A factor of 1.15 says the host ran 15 %
// slow; the reported time is what the operation would have taken at 1.
//
// This works best for operations of a few tenths of a second, where a
// window has some fifty (operation, burst) pairs: there it takes out nine
// tenths of the drift. Beside lumi-warm's runs of 1.5 s a burst of three
// still follows the host, if less closely. A burst at each end of a
// lumi-cold run of 6.5 s says little about the host during it — the host
// also moves from one tenth of a second to the next — and the correction
// doubled the spread of its three-run medians, so lumi-cold, and the
// populate run that is lumi-warm's set-up, report the clock's reading
// (burst 0).

// nominalMS is what one kernel call takes between two operations on the
// reference host on a quiet day (in a tight loop it takes 21.7 ms). It only
// fixes the scale: factors are compared with each other, never with 1.
const nominalMS = 24.5

const (
	sortInts  = 200_000
	walkWords = 16 << 20 // 64 MB of uint32: larger than the caches
	walkSteps = 400_000
)

// calibrator owns the buffers of the calibration kernel, so that timing it
// allocates nothing and never wakes the benchmark's own garbage collector.
type calibrator struct {
	ints []int
	big  []uint32
	sink uint64 // keeps the compiler from discarding the work
}

func newCalibrator() *calibrator {
	c := &calibrator{ints: make([]int, sortInts), big: make([]uint32, walkWords)}
	for i := range c.big { // touch every page once: page faults are not host speed
		c.big[i] = uint32(i)
	}
	c.kernel()
	return c
}

// kernel does the fixed work — sort 200 000 pseudo-random integers (compute
// and branches, in cache), then 400 000 dependent random reads and writes
// over 64 MB (memory latency) — and returns how long it took in ms. The two
// halves answer to the two ways a neighbour slows this host: taking cycles,
// and taking cache and memory bandwidth.
func (c *calibrator) kernel() float64 {
	start := time.Now()
	x := uint64(2463534242)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.ints {
		c.ints[i] = int(next() >> 1)
	}
	sort.Ints(c.ints)
	var sum uint32
	for i := 0; i < walkSteps; i++ {
		j := next() & (walkWords - 1)
		c.big[j] += uint32(i)
		sum += c.big[(j*7)&(walkWords-1)]
	}
	c.sink += uint64(c.ints[0]) + uint64(sum)
	return time.Since(start).Seconds() * 1e3
}

// factor returns the host factor: the median time of reps kernel calls over
// nominalMS. One call is made and discarded first: what the program under
// test left in the caches is the program's doing, not the host's speed, and
// must not leak into the correction of the program's own time.
func (c *calibrator) factor(reps int) float64 {
	c.kernel()
	ms := make([]float64, reps)
	for i := range ms {
		ms[i] = c.kernel()
	}
	return median(ms) / nominalMS
}

// pace follows the host factor along a sequence of operations: a burst of
// kernel calls before the first operation and after each one, so that every
// operation is corrected by the mean of the two bursts around it. With
// reps == 0 it measures nothing and every factor is 1: the workload reports
// its times as the clock read them.
type pace struct {
	cal    *calibrator
	reps   int
	rec    *span.Recorder // nil in the untraced run
	parent int
	last   float64
}

func newPace(cal *calibrator, reps int, rec *span.Recorder, parent int) *pace {
	p := &pace{cal: cal, reps: reps, rec: rec, parent: parent}
	p.last = p.burst()
	return p
}

func (p *pace) burst() float64 {
	if p.reps == 0 {
		return 1
	}
	id := p.rec.Start(p.parent, "calibrate")
	defer p.rec.End(id)
	return p.cal.factor(p.reps)
}

// next is called when an operation has just ended: it returns the host
// factor that applies to it.
func (p *pace) next() float64 {
	now := p.burst()
	f := (p.last + now) / 2
	p.last = now
	return f
}
