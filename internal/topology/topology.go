// Package topology models the four network families of the paper's
// evaluation — Dragonfly (LUMI), Dragonfly+ (Leonardo), 2:1-oversubscribed
// fat tree (MareNostrum 5), and multidimensional torus (Fugaku) — at the
// granularity that matters for the paper's analysis: which links a message
// traverses, which of those links are global (inter-group), and how much
// bandwidth each link offers when several messages share it.
//
// Modelling notes: node-to-switch (injection/ejection) links carry every
// message; fully connected intra-group fabrics are assumed non-blocking
// beyond injection; inter-group capacity is modelled either as
// per-group-pair links (Dragonfly) or per-group uplink/downlink bundles
// (Dragonfly+, fat-tree subtrees); torus links are per node, dimension and
// direction. Routing is minimal, matching the paper's lower-bound accounting
// ("we assume packets traverse inter-group connections via minimal paths").
//
// Links are not stored: a link ID and its bandwidth are arithmetic on the
// configuration. On n nodes, node i injects on link 2i and ejects on 2i+1;
// every ID from 2n up is a global link of the family's block:
//   - Dragonfly, g groups: the bundle from group a to group b ≠ a is
//     2n + a·(g−1) + b − [b > a].
//   - UpDown, g groups: group h's uplink is 2n+2h and its downlink 2n+2h+1.
//   - Torus, k dimensions: the link leaving node i along dimension d is
//     2n + 2(i·k+d), plus 1 in the negative direction.
//   - Flat: no global links.
//
// A route (AppendRoute) is the sender's injection link, then the global
// links it crosses, then the receiver's ejection link, so a message between
// two nodes crosses its route's length less two global links. A node's
// message to itself routes nothing.
package topology

import "fmt"

// Topology answers routing and grouping questions about a machine.
type Topology interface {
	Name() string
	// Nodes returns the number of compute nodes.
	Nodes() int
	// NumGroups returns the number of fully connected groups (leaf
	// subtrees for fat trees; 1 for flat networks; the node count for
	// tori, where every hop is considered oversubscribed).
	NumGroups() int
	// GroupOf returns the group of a node.
	GroupOf(node int) int
	// AppendRoute appends to buf the link IDs a message from src to dst
	// traverses under minimal routing, and returns the extended slice: the
	// sender's injection link 2·src, then the global links crossed (IDs
	// from 2·Nodes() up), then the receiver's ejection link 2·dst+1.
	// src == dst appends nothing. A route is a few integers of arithmetic
	// (an O(hops) walk on a torus), so it is computed per message pair
	// rather than stored: the call allocates nothing once buf has the
	// capacity, and is safe from any number of goroutines, each with its
	// own buf.
	AppendRoute(buf []int32, src, dst int) []int32
	// Routes exists only for the frozen bench/probe; see RouteCache.
	Routes() *RouteCache
	// NumLinks returns the number of links; IDs run over [0, NumLinks()).
	NumLinks() int
	// LinkBW returns the capacity of link id in bytes per second.
	LinkBW(id int32) float64
}

// GbpsToBytes converts gigabits per second to bytes per second.
func GbpsToBytes(gbps float64) float64 { return gbps * 1e9 / 8 }

// common implements what all concrete topologies share: the name, and the
// injection links — node i injects on 2i and ejects on 2i+1, each of nicBW.
type common struct {
	name  string
	nodes int
	nicBW float64
}

func (c common) inject(node int) int32 { return int32(2 * node) }
func (c common) eject(node int) int32  { return int32(2*node + 1) }

// firstGlobal is the ID of the first link past the injection block.
func (c common) firstGlobal() int32 { return int32(2 * c.nodes) }

// linkBW is nicBW on an injection link and global past them.
func (c common) linkBW(id int32, global float64) float64 {
	if id < c.firstGlobal() {
		return c.nicBW
	}
	return global
}

// Name returns the configured system name.
func (c common) Name() string { return c.name }

func (c common) Nodes() int { return c.nodes }

// blocks groups nodes block-wise (hostnames numbered consecutively across
// groups, as on the paper's systems).
type blocks struct{ groups, nodesPerGroup int }

// NumGroups returns the group count.
func (b blocks) NumGroups() int { return b.groups }

// GroupOf maps nodes to groups block-wise.
func (b blocks) GroupOf(node int) int { return node / b.nodesPerGroup }

// Dragonfly is a LUMI-like network: groups are fully connected internally
// and every group pair is joined by a dedicated global-link bundle.
type Dragonfly struct {
	common
	blocks
	globalBW float64
}

// DragonflyConfig sizes a Dragonfly.
type DragonflyConfig struct {
	Name          string
	Groups        int
	NodesPerGroup int
	// NICBW is per-node injection bandwidth (bytes/s).
	NICBW float64
	// GlobalBW is the capacity of each group-pair bundle (bytes/s).
	GlobalBW float64
}

// NewDragonfly builds the topology.
func NewDragonfly(cfg DragonflyConfig) (*Dragonfly, error) {
	if cfg.Groups <= 0 || cfg.NodesPerGroup <= 0 {
		return nil, fmt.Errorf("topology: dragonfly %d×%d", cfg.Groups, cfg.NodesPerGroup)
	}
	return &Dragonfly{
		common:   common{cfg.Name, cfg.Groups * cfg.NodesPerGroup, cfg.NICBW},
		blocks:   blocks{cfg.Groups, cfg.NodesPerGroup},
		globalBW: cfg.GlobalBW,
	}, nil
}

// global is the bundle from group ga to group gb ≠ ga.
func (d *Dragonfly) global(ga, gb int) int32 {
	if gb > ga {
		gb--
	}
	return d.firstGlobal() + int32(ga*(d.groups-1)+gb)
}

// NumLinks counts the injection links and the g(g−1) group-pair bundles.
func (d *Dragonfly) NumLinks() int { return 2*d.nodes + d.groups*(d.groups-1) }

// LinkBW is the NIC bandwidth on injection links, the bundle's otherwise.
func (d *Dragonfly) LinkBW(id int32) float64 { return d.linkBW(id, d.globalBW) }

// Routes returns the bench/probe shim.
func (d *Dragonfly) Routes() *RouteCache { return &RouteCache{topo: d} }

// AppendRoute appends injection + (for inter-group traffic) the group-pair
// global bundle + ejection.
func (d *Dragonfly) AppendRoute(buf []int32, src, dst int) []int32 {
	if src == dst {
		return buf
	}
	ga, gb := d.GroupOf(src), d.GroupOf(dst)
	if ga == gb {
		return append(buf, d.inject(src), d.eject(dst))
	}
	return append(buf, d.inject(src), d.global(ga, gb), d.eject(dst))
}

// UpDown is the shared shape of Dragonfly+ (Leonardo) and oversubscribed
// fat trees (MareNostrum 5): every group (pod or leaf subtree) reaches the
// rest of the machine through an aggregated uplink/downlink bundle; the
// second-level fabric is assumed non-blocking.
type UpDown struct {
	common
	blocks
	bundleBW []float64 // bundleBW[g]: group g's uplink and downlink capacity
}

// UpDownConfig sizes an UpDown topology. The uplink/downlink bundle
// capacity is NodesPerGroup·NICBW/Oversub: a 2:1 oversubscribed fat tree
// halves the aggregate bandwidth leaving each subtree.
type UpDownConfig struct {
	Name          string
	Groups        int
	NodesPerGroup int
	NICBW         float64
	Oversub       float64
	// GroupNodeShare optionally scales each group's bundle to the fair
	// share of a job occupying that many of the group's nodes (the rest
	// of the bundle serves other tenants on a busy machine):
	// bundle_g = GroupNodeShare[g]·NICBW/Oversub. Entries of zero keep a
	// one-node share so links never vanish.
	GroupNodeShare []int
}

// NewUpDown builds the topology.
func NewUpDown(cfg UpDownConfig) (*UpDown, error) {
	if cfg.Groups <= 0 || cfg.NodesPerGroup <= 0 || cfg.Oversub <= 0 {
		return nil, fmt.Errorf("topology: updown %d×%d oversub %.1f", cfg.Groups, cfg.NodesPerGroup, cfg.Oversub)
	}
	u := &UpDown{
		common:   common{cfg.Name, cfg.Groups * cfg.NodesPerGroup, cfg.NICBW},
		blocks:   blocks{cfg.Groups, cfg.NodesPerGroup},
		bundleBW: make([]float64, cfg.Groups),
	}
	for g := range u.bundleBW {
		share := cfg.NodesPerGroup
		if cfg.GroupNodeShare != nil {
			share = cfg.GroupNodeShare[g]
			if share < 1 {
				share = 1
			}
		}
		u.bundleBW[g] = float64(share) * cfg.NICBW / cfg.Oversub
	}
	return u, nil
}

// up and down are group g's bundles.
func (u *UpDown) up(g int) int32   { return u.firstGlobal() + int32(2*g) }
func (u *UpDown) down(g int) int32 { return u.firstGlobal() + int32(2*g+1) }

// NumLinks counts the injection links and two bundles per group.
func (u *UpDown) NumLinks() int { return 2*u.nodes + 2*u.groups }

// LinkBW is the NIC bandwidth on injection links, the group's bundle
// capacity otherwise.
func (u *UpDown) LinkBW(id int32) float64 {
	if id < u.firstGlobal() {
		return u.nicBW
	}
	return u.bundleBW[(id-u.firstGlobal())/2]
}

// Routes returns the bench/probe shim.
func (u *UpDown) Routes() *RouteCache { return &RouteCache{topo: u} }

// AppendRoute crosses the source group's uplink and the destination group's
// downlink for inter-group traffic.
func (u *UpDown) AppendRoute(buf []int32, src, dst int) []int32 {
	if src == dst {
		return buf
	}
	ga, gb := u.GroupOf(src), u.GroupOf(dst)
	if ga == gb {
		return append(buf, u.inject(src), u.eject(dst))
	}
	return append(buf, u.inject(src), u.up(ga), u.down(gb), u.eject(dst))
}

// Flat is a non-blocking crossbar (intra-node GPU fabric, or an idealized
// network): only injection links constrain traffic.
type Flat struct{ common }

// NewFlat builds a flat crossbar over n nodes.
func NewFlat(name string, n int, nicBW float64) *Flat {
	return &Flat{common{name, n, nicBW}}
}

// NumLinks counts the injection links, the only ones.
func (f *Flat) NumLinks() int { return 2 * f.nodes }

// LinkBW is the NIC bandwidth.
func (f *Flat) LinkBW(int32) float64 { return f.nicBW }

// NumGroups is 1: nothing is oversubscribed.
func (f *Flat) NumGroups() int { return 1 }

// GroupOf always returns 0.
func (f *Flat) GroupOf(int) int { return 0 }

// Routes returns the bench/probe shim.
func (f *Flat) Routes() *RouteCache { return &RouteCache{topo: f} }

// AppendRoute is injection and ejection only.
func (f *Flat) AppendRoute(buf []int32, src, dst int) []int32 {
	if src == dst {
		return buf
	}
	return append(buf, f.inject(src), f.eject(dst))
}
