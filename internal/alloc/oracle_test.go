package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scanAllocator is the first fit the bitset replaced: a linear scan of a
// per-node busy flag in hostname order.
type scanAllocator struct {
	busy []bool
	free int
}

func (s *scanAllocator) allocate(k int) []int {
	if k <= 0 || k > s.free {
		return nil
	}
	var nodes []int
	for n := 0; n < len(s.busy) && len(nodes) < k; n++ {
		if !s.busy[n] {
			s.busy[n] = true
			nodes = append(nodes, n)
		}
	}
	s.free -= k
	return nodes
}

func (s *scanAllocator) release(nodes []int) {
	for _, n := range nodes {
		if s.busy[n] {
			s.busy[n] = false
			s.free++
		}
	}
}

// sameFreeSet reports the first bit on which the allocator's bitset and the
// scan's busy flags disagree — a bit past the machine's last node must be
// clear — or -1.
func sameFreeSet(a *Allocator, s *scanAllocator) int {
	for n := range 64 * len(a.free) {
		free := a.free[n>>6]>>(n&63)&1 == 1
		if n >= len(s.busy) && free || n < len(s.busy) && free == s.busy[n] {
			return n
		}
	}
	return -1
}

// TestAllocatorMatchesFirstFitScan drives the bitset allocator and the
// linear scan through the same seeded Allocate/Release/double-Release
// sequence, on machines whose sizes are not multiples of 64, and requires
// the same nodes, errors, counts and free set after every operation.
func TestAllocatorMatchesFirstFitScan(t *testing.T) {
	t.Parallel()
	for _, m := range []Machine{
		{Groups: 1, NodesPerGroup: 5},
		{Groups: 24, NodesPerGroup: 124}, // LUMI: 2 976 nodes
		{Groups: 23, NodesPerGroup: 180}, // Leonardo: 4 140 nodes
	} {
		t.Run(fmt.Sprintf("%dx%d", m.Groups, m.NodesPerGroup), func(t *testing.T) {
			t.Parallel()
			a := NewAllocator(m, 1)
			s := &scanAllocator{busy: make([]bool, m.Nodes()), free: m.Nodes()}
			if n := sameFreeSet(a, s); n >= 0 {
				t.Fatalf("fresh allocator disagrees on node %d", n)
			}
			rng := rand.New(rand.NewSource(int64(m.Nodes())))
			var held, released [][]int
			for op := 0; op < 3000; op++ {
				var what string
				switch r := rng.Intn(10); {
				case r < 5 || len(held) == 0:
					var k int
					switch rng.Intn(4) {
					case 0:
						k = 1 + rng.Intn(8)
					case 1:
						k = rng.Intn(s.free + 2) // up to one past the free count
					case 2:
						k = rng.Intn(3) - 1 // -1, 0 or 1
					default:
						k = 1 + rng.Intn(max(1, m.Nodes()/8))
					}
					what = fmt.Sprintf("Allocate(%d)", k)
					got, err := a.Allocate(k)
					want := s.allocate(k)
					if (err == nil) != (want != nil) || !slices.Equal(got, want) {
						t.Fatalf("op %d %s = %v, %v; scan gives %v", op, what, got, err, want)
					}
					if want != nil {
						held = append(held, want)
					}
				case r < 8:
					i := rng.Intn(len(held))
					what = fmt.Sprintf("Release(%d nodes)", len(held[i]))
					a.Release(held[i])
					s.release(held[i])
					released = append(released, held[i])
					held = slices.Delete(held, i, i+1)
				default:
					if len(released) == 0 {
						continue
					}
					nodes := released[rng.Intn(len(released))]
					what = fmt.Sprintf("double Release(%d nodes)", len(nodes))
					a.Release(nodes)
					s.release(nodes)
				}
				if a.FreeNodes() != s.free {
					t.Fatalf("op %d %s: %d free, scan has %d", op, what, a.FreeNodes(), s.free)
				}
				if n := sameFreeSet(a, s); n >= 0 {
					t.Fatalf("op %d %s: free sets disagree on node %d", op, what, n)
				}
			}
		})
	}
}

// eagerWorkload is the retire loop the due-driven one replaced: every
// arrival first scans all running jobs and compacts the survivors.
type eagerWorkload struct {
	a        *Allocator
	sizes    func(rng *rand.Rand) int
	lifetime func(rng *rand.Rand) int
	clock    int
	running  []liveJob
}

func (w *eagerWorkload) run(n int) []Job {
	var out []Job
	for end := w.clock + n; w.clock < end; w.clock++ {
		kept := w.running[:0]
		for _, l := range w.running {
			if l.until <= w.clock {
				w.a.Release(l.nodes)
			} else {
				kept = append(kept, l)
			}
		}
		w.running = kept
		nodes, err := w.a.Allocate(w.sizes(w.a.rng))
		if err != nil {
			continue
		}
		w.running = append(w.running, liveJob{nodes: nodes, until: w.clock + 1 + w.lifetime(w.a.rng)})
		out = append(out, Job{Nodes: nodes})
	}
	return out
}

func (w *eagerWorkload) ensureFree(k int) {
	for w.a.FreeNodes() < k && len(w.running) > 0 {
		w.a.Release(w.running[0].nodes)
		w.running = w.running[1:]
	}
}

// TestWorkloadMatchesEagerRetire interleaves Advance, Run and EnsureFree on
// a Workload and the same calls on the eager oracle (Advance as a run whose
// jobs are dropped), from the same seed, and requires after every call the
// same returned jobs, the same running jobs in the same order and the same
// free set.
func TestWorkloadMatchesEagerRetire(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		m        Machine
		sizes    func(rng *rand.Rand) int
		lifetime func(rng *rand.Rand) int
	}{
		{"lumi-production", Machine{Groups: 24, NodesPerGroup: 124}, ProductionSizes(2048), UniformLifetime(30, 120)},
		{"leonardo-short-lived", Machine{Groups: 23, NodesPerGroup: 180}, PowerOfTwoSizes(16, 1024), UniformLifetime(0, 6)},
		{"tiny", Machine{Groups: 1, NodesPerGroup: 5}, func(rng *rand.Rand) int { return 1 + rng.Intn(3) }, UniformLifetime(0, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w := &Workload{A: NewAllocator(tc.m, 7), Sizes: tc.sizes, Lifetime: tc.lifetime}
			o := &eagerWorkload{a: NewAllocator(tc.m, 7), sizes: tc.sizes, lifetime: tc.lifetime}
			rng := rand.New(rand.NewSource(3))
			for op := 0; op < 400; op++ {
				var what string
				switch rng.Intn(3) {
				case 0:
					n := rng.Intn(60)
					what = fmt.Sprintf("Advance(%d)", n)
					w.Advance(n)
					o.run(n)
				case 1:
					n := rng.Intn(60)
					what = fmt.Sprintf("Run(%d)", n)
					got, want := w.Run(n), o.run(n)
					if !slices.EqualFunc(got, want, func(a, b Job) bool { return slices.Equal(a.Nodes, b.Nodes) }) {
						t.Fatalf("op %d %s returned %d jobs, oracle %d, or their nodes differ", op, what, len(got), len(want))
					}
				default:
					k := rng.Intn(tc.m.Nodes() + 1)
					what = fmt.Sprintf("EnsureFree(%d)", k)
					w.EnsureFree(k)
					o.ensureFree(k)
				}
				if w.clock != o.clock {
					t.Fatalf("op %d %s: clock %d, oracle %d", op, what, w.clock, o.clock)
				}
				if !slices.EqualFunc(w.running, o.running, func(a, b liveJob) bool {
					return a.until == b.until && slices.Equal(a.nodes, b.nodes)
				}) {
					t.Fatalf("op %d %s: %d running jobs, oracle %d, or their order differs", op, what, len(w.running), len(o.running))
				}
				if !slices.Equal(w.A.free, o.a.free) || w.A.FreeNodes() != o.a.FreeNodes() {
					t.Fatalf("op %d %s: free sets differ", op, what)
				}
			}
		})
	}
}
