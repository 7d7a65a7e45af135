// Package alloc generates Slurm-like job allocations over group-structured
// machines. It substitutes for the paper's one/two-week squeue/scontrol
// captures from Leonardo and LUMI (Sec. 2.4.2): jobs arrive and depart,
// nodes are handed out first-fit in hostname order (Slurm's default block
// distribution over the sorted free list), and long-running occupancy
// fragments the machine so that consecutive ranks land in irregular group
// runs — the regime in which Bine's shorter modular distances pay off.
package alloc

import (
	"fmt"
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
type Allocator struct {
	m    Machine
	busy []bool
	free int
	rng  *rand.Rand
}

// NewAllocator creates an empty allocator with a deterministic random
// source for workload generation.
func NewAllocator(m Machine, seed int64) *Allocator {
	return &Allocator{
		m:    m,
		busy: make([]bool, m.Nodes()),
		free: m.Nodes(),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Machine returns the allocator's machine description.
func (a *Allocator) Machine() Machine { return a.m }

// FreeNodes returns how many nodes are currently unallocated.
func (a *Allocator) FreeNodes() int { return a.free }

// Allocate hands out k free nodes in ascending hostname order (first fit).
// Rank i of the job runs on the i-th returned node, matching Slurm's block
// distribution over the sorted free list.
func (a *Allocator) Allocate(k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("alloc: request for %d nodes", k)
	}
	if k > a.free {
		return nil, fmt.Errorf("alloc: %d nodes requested, %d free", k, a.free)
	}
	nodes := make([]int, 0, k)
	for n := 0; n < len(a.busy) && len(nodes) < k; n++ {
		if !a.busy[n] {
			a.busy[n] = true
			nodes = append(nodes, n)
		}
	}
	a.free -= k
	return nodes, nil
}

// Release returns a job's nodes to the free pool.
func (a *Allocator) Release(nodes []int) {
	for _, n := range nodes {
		if a.busy[n] {
			a.busy[n] = false
			a.free++
		}
	}
}

// GroupsOf maps a job's node list to per-rank group IDs.
func (a *Allocator) GroupsOf(nodes []int) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = a.m.GroupOf(n)
	}
	return out
}

// Job is one synthetic allocation.
type Job struct {
	Nodes  []int
	Groups []int
}

// SpannedGroups counts the distinct groups a job touches.
func (j Job) SpannedGroups() int {
	seen := map[int]bool{}
	for _, g := range j.Groups {
		seen[g] = true
	}
	return len(seen)
}

// Workload drives a churning job mix and collects the allocations of jobs
// whose size matches the sampler's interest. sizes draws a job size;
// lifetime draws how many subsequent arrivals a job survives.
type Workload struct {
	A *Allocator
	// Sizes samples a job's node count.
	Sizes func(rng *rand.Rand) int
	// Lifetime samples how many arrivals a job outlives.
	Lifetime func(rng *rand.Rand) int

	clock   int
	running []liveJob
}

type liveJob struct {
	nodes []int
	until int
}

// Run simulates the arrival of n further jobs and returns every
// successfully placed job's allocation snapshot (in arrival order). Jobs
// that cannot fit are dropped, like Slurm holding them in queue. Jobs still
// running at the end stay allocated — the machine remains fragmented for
// subsequent Run or Allocate calls; Drain releases them.
func (w *Workload) Run(n int) []Job {
	var out []Job
	for end := w.clock + n; w.clock < end; w.clock++ {
		// Retire expired jobs first.
		kept := w.running[:0]
		for _, l := range w.running {
			if l.until <= w.clock {
				w.A.Release(l.nodes)
			} else {
				kept = append(kept, l)
			}
		}
		w.running = kept
		k := w.Sizes(w.A.rng)
		nodes, err := w.A.Allocate(k)
		if err != nil {
			continue
		}
		w.running = append(w.running, liveJob{nodes: nodes, until: w.clock + 1 + w.Lifetime(w.A.rng)})
		out = append(out, Job{Nodes: nodes, Groups: w.A.GroupsOf(nodes)})
	}
	return out
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
