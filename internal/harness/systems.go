// Package harness regenerates every table and figure of the paper's
// evaluation (Sec. 5, Sec. 6 and the appendices) on the simulated systems:
// it sweeps node counts and vector sizes, executes every registered
// algorithm once per configuration under a recording fabric, replays the
// traces through the cost model, and renders the paper's tables, heatmaps
// and boxplots as text.
package harness

import (
	"fmt"
	"slices"

	"binetrees/internal/alloc"
	"binetrees/internal/netsim"
	"binetrees/internal/topology"
)

// System is one of the paper's evaluation machines, reduced to the
// properties the model needs.
type System struct {
	Name string
	// Key is the short selector the job graph and the -systems flag use
	// ("lumi", "leonardo", "marenostrum"); see SystemKeys.
	Key     string
	Machine alloc.Machine
	// Oversub selects the topology family: 0 = Dragonfly (per-pair global
	// links), > 0 = UpDown with that oversubscription (Dragonfly+ pods,
	// fat-tree subtrees).
	Oversub float64
	// NICGbps and GlobalGbps size the links.
	NICGbps, GlobalGbps float64
	Params              netsim.Params
	// NodeCounts swept by the experiments (powers of two, like the
	// paper's reported results).
	NodeCounts []int
	// Seed drives the synthetic allocation workload.
	Seed int64
	// MPI names the system's MPI flavour; it decides which binomial tree
	// the baselines use — Open MPI broadcasts over distance-doubling
	// trees, MPICH over distance-halving ones (Sec. 5.2.1 explains the
	// resulting gap).
	MPI string
}

// ExcludesAlgorithm reports whether the system's MPI library lacks the
// named algorithm (the paper compares against the algorithms each library
// actually offers).
func (s System) ExcludesAlgorithm(name string) bool {
	switch s.MPI {
	case "mpich": // Cray MPICH: distance-halving binomial trees
		return name == "binomial-dd"
	case "openmpi": // Open MPI: distance-doubling binomial trees
		return name == "binomial-dh"
	}
	return false
}

// TopologyFor instantiates the network model as experienced by a job placed
// on the given nodes (nil: full-machine bundle capacities): on tapered
// (UpDown) systems the job's share of each group's uplink/downlink bundle is
// proportional to how many of the group's nodes it occupies — the rest of
// the bundle serves other tenants, which is what makes global links the
// scarce resource the paper optimizes for.
func (s System) TopologyFor(placement []int) (topology.Topology, error) {
	if s.Oversub > 0 {
		var share []int
		if placement != nil {
			share = make([]int, s.Machine.Groups)
			for _, node := range placement {
				share[s.Machine.GroupOf(node)]++
			}
		}
		return topology.NewUpDown(topology.UpDownConfig{
			Name:           s.Name,
			Groups:         s.Machine.Groups,
			NodesPerGroup:  s.Machine.NodesPerGroup,
			NICBW:          topology.GbpsToBytes(s.NICGbps),
			Oversub:        s.Oversub,
			GroupNodeShare: share,
		})
	}
	return topology.NewDragonfly(topology.DragonflyConfig{
		Name:          s.Name,
		Groups:        s.Machine.Groups,
		NodesPerGroup: s.Machine.NodesPerGroup,
		NICBW:         topology.GbpsToBytes(s.NICGbps),
		GlobalBW:      topology.GbpsToBytes(s.GlobalGbps),
	})
}

func defaultParams() netsim.Params {
	return netsim.Params{
		AlphaLocal:    1.5e-6,
		AlphaGlobal:   3.0e-6,
		PerHopLatency: 3e-7,
		MsgOverhead:   6e-7,
		Gamma:         5e-11, // ~20 GB/s streaming reduce
		MemBW:         25e9,
	}
}

// LUMI is the Dragonfly system of Sec. 5.1: 24 groups of 124 nodes,
// Slingshot 11 (one 200 Gb/s NIC used per process, one process per node).
func LUMI() System {
	return System{
		Name:       "LUMI (Dragonfly)",
		Key:        "lumi",
		Machine:    alloc.Machine{Groups: 24, NodesPerGroup: 124},
		NICGbps:    200,
		GlobalGbps: 2 * 200, // per group-pair bundle on a 24-group Dragonfly
		Params:     defaultParams(),
		NodeCounts: []int{16, 32, 64, 128, 256, 512, 1024},
		Seed:       11,
		MPI:        "mpich",
	}
}

// Leonardo is the Dragonfly+ system of Sec. 5.2: 23 pods of 180 nodes,
// InfiniBand HDR.
func Leonardo() System {
	return System{
		Name:       "Leonardo (Dragonfly+)",
		Key:        "leonardo",
		Machine:    alloc.Machine{Groups: 23, NodesPerGroup: 180},
		Oversub:    1.8, // pods taper toward the second-level spines
		NICGbps:    200,
		Params:     defaultParams(),
		NodeCounts: []int{16, 32, 64, 128, 256, 512, 1024, 2048},
		Seed:       23,
		MPI:        "openmpi",
	}
}

// MareNostrum is the 2:1 oversubscribed fat tree of Sec. 5.3: 160-node
// full-bandwidth subtrees, InfiniBand NDR200.
func MareNostrum() System {
	return System{
		Name:       "MareNostrum 5 (2:1 fat tree)",
		Key:        "marenostrum",
		Machine:    alloc.Machine{Groups: 8, NodesPerGroup: 160},
		Oversub:    2,
		NICGbps:    200,
		Params:     defaultParams(),
		NodeCounts: []int{4, 8, 16, 32, 64},
		Seed:       55,
		MPI:        "openmpi",
	}
}

// FugakuShapes are the torus job geometries of Sec. 5.4.
func FugakuShapes() [][]int {
	return [][]int{{2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {64, 64}, {32, 256}}
}

// FugakuParams models Tofu-D: 54.4 Gb/s per link/TNI, short per-hop
// latencies.
func FugakuParams() netsim.Params {
	p := defaultParams()
	p.AlphaLocal = 1.0e-6
	p.AlphaGlobal = 1.2e-6
	p.PerHopLatency = 2e-7
	return p
}

// FugakuTopology builds the torus network for one job shape.
func FugakuTopology(dims []int) (*topology.Torus, error) {
	return topology.NewTorus(topology.TorusConfig{
		Name:  fmt.Sprintf("Fugaku %v", dims),
		Dims:  dims,
		NICBW: topology.GbpsToBytes(54.4),
		// Each link direction is a separate resource (6 TNIs per node).
		LinkBW: topology.GbpsToBytes(54.4),
	})
}

// VectorSizes returns the paper's nine benchmark sizes (bytes), 32 B to
// 512 MiB in 8× steps.
func VectorSizes() []int64 {
	sizes := make([]int64, 0, 9)
	for s := int64(32); s <= 512<<20; s *= 8 {
		sizes = append(sizes, s)
	}
	return sizes
}

// SizeLabel formats a vector size the way the paper's figures do.
func SizeLabel(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%d MiB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%d KiB", bytes>>10)
	default:
		return fmt.Sprintf("%d B", bytes)
	}
}

// Placements builds fragmented rank→node maps for every requested job size
// by replaying a churning workload on the system's allocator and then
// placing each job on the fragmented machine — the Slurm-realism at the
// heart of the paper's locality argument (Sec. 2.4.2). The churn only moves
// the machine's occupancy (Workload.Advance); the one node list kept per
// count is the job placed on it.
func Placements(sys System, counts []int) (map[int][]int, error) {
	w := FragmentingWorkload(sys.Machine, slices.Max(counts), sys.Seed)
	w.Advance(1200) // reach steady-state fragmentation
	out := make(map[int][]int, len(counts))
	for _, p := range counts {
		w.EnsureFree(p)
		nodes, err := w.A.Allocate(p)
		if err != nil {
			return nil, fmt.Errorf("harness: placing %d nodes on %s: %w", p, sys.Name, err)
		}
		out[p] = nodes
		w.A.Release(nodes)
		w.Advance(53) // churn between placements so each job sees different holes
	}
	return out, nil
}

// FragmentingWorkload is the churn model shared by the sweeps and the
// Fig. 5 study: a production-like mix of many tiny jobs and a power-of-two
// tail, with lifetimes long enough to keep the machine ~2/3 occupied so
// free nodes are scattered.
func FragmentingWorkload(m alloc.Machine, maxP int, seed int64) *alloc.Workload {
	return &alloc.Workload{
		A:        alloc.NewAllocator(m, seed),
		Sizes:    alloc.ProductionSizes(maxP),
		Lifetime: alloc.UniformLifetime(30, 120),
	}
}
