// Package alloc generates Slurm-like job allocations over group-structured
// machines. It substitutes for the paper's one/two-week squeue/scontrol
// captures from Leonardo and LUMI (Sec. 2.4.2): jobs arrive and depart,
// nodes are handed out first-fit in hostname order (Slurm's default block
// distribution over the sorted free list), and long-running occupancy
// fragments the machine so that consecutive ranks land in irregular group
// runs — the regime in which Bine's shorter modular distances pay off.
//
// A placement costs what it returns: the allocator scans a free-node bitset
// a word at a time, and a workload retires jobs only on the ticks where one
// is due.
package alloc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Machine describes a group-structured system (Dragonfly groups, Dragonfly+
// pods, or fat-tree subtrees).
type Machine struct {
	Groups        int
	NodesPerGroup int
}

// Nodes returns the machine size.
func (m Machine) Nodes() int { return m.Groups * m.NodesPerGroup }

// GroupOf returns the group of a node (hostnames numbered consecutively
// across groups, as on the paper's systems).
func (m Machine) GroupOf(node int) int { return node / m.NodesPerGroup }

// Allocator tracks node occupancy and serves first-fit block allocations.
// The free nodes are a bitset, one bit per node in hostname order, so a
// first-fit allocation costs the words it reads and the nodes it returns,
// not the machine size.
type Allocator struct {
	m     Machine
	free  []uint64 // bit n%64 of word n/64 is set while node n is free
	nfree int
	rng   *rand.Rand
}

// NewAllocator creates an empty allocator with a deterministic random
// source for workload generation.
func NewAllocator(m Machine, seed int64) *Allocator {
	n := m.Nodes()
	free := make([]uint64, (n+63)/64)
	for i := range free {
		free[i] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 {
		free[len(free)-1] = 1<<tail - 1
	}
	return &Allocator{m: m, free: free, nfree: n, rng: rand.New(rand.NewSource(seed))}
}

// Machine returns the allocator's machine description.
func (a *Allocator) Machine() Machine { return a.m }

// FreeNodes returns how many nodes are currently unallocated.
func (a *Allocator) FreeNodes() int { return a.nfree }

// Allocate hands out the k lowest-numbered free nodes in ascending hostname
// order (first fit). Rank i of the job runs on the i-th returned node,
// matching Slurm's block distribution over the sorted free list.
func (a *Allocator) Allocate(k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("alloc: request for %d nodes", k)
	}
	if k > a.nfree {
		return nil, fmt.Errorf("alloc: %d nodes requested, %d free", k, a.nfree)
	}
	nodes := make([]int, 0, k)
	for i := 0; len(nodes) < k; i++ {
		word := a.free[i]
		for ; word != 0 && len(nodes) < k; word &= word - 1 {
			nodes = append(nodes, i<<6|bits.TrailingZeros64(word))
		}
		a.free[i] = word
	}
	a.nfree -= k
	return nodes, nil
}

// Release returns a job's nodes to the free pool. Releasing a free node is
// a no-op.
func (a *Allocator) Release(nodes []int) {
	for _, n := range nodes {
		if bit := uint64(1) << (n & 63); a.free[n>>6]&bit == 0 {
			a.free[n>>6] |= bit
			a.nfree++
		}
	}
}

// Job is one synthetic allocation: the job's nodes, rank i on Nodes[i].
type Job struct {
	Nodes []int
}

// SpannedGroups counts the distinct groups of m the job touches.
func (j Job) SpannedGroups(m Machine) int {
	seen := map[int]bool{}
	for _, n := range j.Nodes {
		seen[m.GroupOf(n)] = true
	}
	return len(seen)
}

// Workload drives a churning job mix: one job arrives per tick, asks the
// allocator for Sizes nodes and, if it fits, holds them for Lifetime further
// arrivals.
type Workload struct {
	A *Allocator
	// Sizes samples a job's node count.
	Sizes func(rng *rand.Rand) int
	// Lifetime samples how many arrivals a job outlives.
	Lifetime func(rng *rand.Rand) int

	clock   int
	running []liveJob // in arrival order
	// due is at most the earliest until in running, so no job expires
	// before the clock reaches it. EnsureFree may leave it low, which costs
	// one retire pass that releases nothing.
	due int
}

type liveJob struct {
	nodes []int
	until int
}

// Run simulates the arrival of n further jobs and returns every
// successfully placed job's allocation (in arrival order). Jobs that cannot
// fit are dropped, like Slurm holding them in queue. Jobs still running at
// the end stay allocated — the machine remains fragmented for subsequent
// Run, Advance or Allocate calls.
func (w *Workload) Run(n int) []Job {
	var out []Job
	for end := w.clock + n; w.clock < end; w.clock++ {
		if nodes := w.step(); nodes != nil {
			out = append(out, Job{Nodes: nodes})
		}
	}
	return out
}

// Advance simulates the arrival of n further jobs like Run, with the same
// allocations and random draws, but collects nothing: it only moves the
// machine's occupancy forward.
func (w *Workload) Advance(n int) {
	for end := w.clock + n; w.clock < end; w.clock++ {
		w.step()
	}
}

// step retires the jobs expiring at the current tick, then submits one
// arrival and returns its nodes, or nil if it did not fit.
func (w *Workload) step() []int {
	if w.clock >= w.due {
		w.retire()
	}
	nodes, err := w.A.Allocate(w.Sizes(w.A.rng))
	if err != nil {
		return nil
	}
	until := w.clock + 1 + w.Lifetime(w.A.rng)
	w.running = append(w.running, liveJob{nodes: nodes, until: until})
	w.due = min(w.due, until)
	return nodes
}

// retire releases every running job whose lifetime ended by the current
// tick, keeping the rest in arrival order, and recomputes due.
func (w *Workload) retire() {
	due, kept := math.MaxInt, 0
	for i, l := range w.running {
		if l.until <= w.clock {
			w.A.Release(l.nodes)
			continue
		}
		if kept < i {
			w.running[kept] = l
		}
		kept++
		due = min(due, l.until)
	}
	w.running = w.running[:kept]
	w.due = due
}

// EnsureFree retires the oldest running jobs until at least k nodes are
// free (a scheduler draining the machine for a large reservation). The
// freed holes stay scattered, preserving fragmentation.
func (w *Workload) EnsureFree(k int) {
	for w.A.FreeNodes() < k && len(w.running) > 0 {
		w.A.Release(w.running[0].nodes)
		w.running = w.running[1:]
	}
}

// PowerOfTwoSizes samples power-of-two job sizes between min and max
// (inclusive), biased toward small jobs like real system mixes.
func PowerOfTwoSizes(min, max int) func(rng *rand.Rand) int {
	var sizes []int
	for s := min; s <= max; s *= 2 {
		sizes = append(sizes, s)
	}
	return func(rng *rand.Rand) int {
		// Geometric bias: small jobs dominate real queues.
		i := 0
		for i < len(sizes)-1 && rng.Intn(2) == 0 {
			i++
		}
		return sizes[i]
	}
}

// ProductionSizes models a production queue: a heavy majority of tiny
// (1–8 node) jobs that riddle the machine with small holes, plus a tail of
// power-of-two jobs up to max — the mix that makes large allocations
// fragmented, as observed on Leonardo and LUMI (Sec. 2.4.2 of the paper).
func ProductionSizes(max int) func(rng *rand.Rand) int {
	tail := PowerOfTwoSizes(16, max)
	return func(rng *rand.Rand) int {
		if rng.Float64() < 0.7 {
			return 1 + rng.Intn(8)
		}
		return tail(rng)
	}
}

// UniformLifetime samples lifetimes uniformly in [min, max].
func UniformLifetime(min, max int) func(rng *rand.Rand) int {
	return func(rng *rand.Rand) int {
		return min + rng.Intn(max-min+1)
	}
}
