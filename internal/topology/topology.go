// Package topology models the four network families of the paper's
// evaluation — Dragonfly (LUMI), Dragonfly+ (Leonardo), 2:1-oversubscribed
// fat tree (MareNostrum 5), and multidimensional torus (Fugaku) — at the
// granularity that matters for the paper's analysis: which links a message
// traverses, which of those links are global (inter-group), and how much
// bandwidth each link offers when several messages share it.
//
// Modelling notes (see DESIGN.md): node-to-switch (injection/ejection) links
// carry every message; fully connected intra-group fabrics are assumed
// non-blocking beyond injection; inter-group capacity is modelled either as
// per-group-pair links (Dragonfly) or per-group uplink/downlink bundles
// (Dragonfly+, fat-tree subtrees); torus links are per node, dimension and
// direction. Routing is minimal, matching the paper's lower-bound accounting
// ("we assume packets traverse inter-group connections via minimal paths").
package topology

import "fmt"

// LinkKind classifies links for traffic accounting.
type LinkKind int

const (
	// Injection covers node→network and network→node (NIC) links.
	Injection LinkKind = iota
	// Local links stay within a group (intra-group fabric, local torus
	// links are Global — see Torus).
	Local
	// Global links cross group boundaries; their load is the paper's
	// headline metric.
	Global
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case Injection:
		return "injection"
	case Local:
		return "local"
	case Global:
		return "global"
	}
	return fmt.Sprintf("LinkKind(%d)", int(k))
}

// Link is one shared network resource.
type Link struct {
	ID   int
	Kind LinkKind
	// BW is the capacity in bytes per second.
	BW float64
}

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
	// traverses under minimal routing, and returns the extended slice.
	// src == dst appends nothing. A route is a few integers of arithmetic
	// (an O(hops) walk on a torus), so it is computed per message pair
	// rather than stored: the call allocates nothing once buf has the
	// capacity, and is safe from any number of goroutines, each with its
	// own buf.
	AppendRoute(buf []int32, src, dst int) []int32
	// Routes exists only for the frozen bench/probe; see RouteCache.
	Routes() *RouteCache
	// Links enumerates every link; AppendRoute results index into it by
	// ID.
	Links() []Link
}

// GbpsToBytes converts gigabits per second to bytes per second.
func GbpsToBytes(gbps float64) float64 { return gbps * 1e9 / 8 }

// common implements injection links (IDs 0..2N-1: node i injects on 2i and
// ejects on 2i+1) shared by all concrete topologies.
type common struct {
	nodes int
	links []Link
}

// newCommon builds the injection links of nodes nodes in a link table sized
// for numLinks links in all, so the constructor's addLink calls that follow
// never regrow it.
func newCommon(nodes, numLinks int, nicBW float64) *common {
	c := &common{nodes: nodes, links: make([]Link, 0, numLinks)}
	for i := 0; i < nodes; i++ {
		c.links = append(c.links,
			Link{ID: 2 * i, Kind: Injection, BW: nicBW},
			Link{ID: 2*i + 1, Kind: Injection, BW: nicBW},
		)
	}
	return c
}

func (c *common) inject(node int) int32 { return int32(2 * node) }
func (c *common) eject(node int) int32  { return int32(2*node + 1) }

func (c *common) addLink(kind LinkKind, bw float64) int32 {
	id := len(c.links)
	c.links = append(c.links, Link{ID: id, Kind: kind, BW: bw})
	return int32(id)
}

func (c *common) Nodes() int    { return c.nodes }
func (c *common) Links() []Link { return c.links }

// Dragonfly is a LUMI-like network: groups are fully connected internally
// and every group pair is joined by a dedicated global-link bundle.
type Dragonfly struct {
	*common
	name          string
	groups        int
	nodesPerGroup int
	global        [][]int32 // global[ga][gb] = link ID (ga != gb)
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
	nodes := cfg.Groups * cfg.NodesPerGroup
	d := &Dragonfly{
		common:        newCommon(nodes, 2*nodes+cfg.Groups*(cfg.Groups-1), cfg.NICBW),
		name:          cfg.Name,
		groups:        cfg.Groups,
		nodesPerGroup: cfg.NodesPerGroup,
	}
	d.global = make([][]int32, cfg.Groups)
	for a := range d.global {
		d.global[a] = make([]int32, cfg.Groups)
		for b := range d.global[a] {
			d.global[a][b] = -1
		}
	}
	for a := 0; a < cfg.Groups; a++ {
		for b := 0; b < cfg.Groups; b++ {
			if a != b {
				d.global[a][b] = d.addLink(Global, cfg.GlobalBW)
			}
		}
	}
	return d, nil
}

// Name returns the configured system name.
func (d *Dragonfly) Name() string { return d.name }

// NumGroups returns the group count.
func (d *Dragonfly) NumGroups() int { return d.groups }

// GroupOf maps nodes to groups block-wise (hostnames numbered consecutively
// across groups, as on the paper's systems).
func (d *Dragonfly) GroupOf(node int) int { return node / d.nodesPerGroup }

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
	return append(buf, d.inject(src), d.global[ga][gb], d.eject(dst))
}

// UpDown is the shared shape of Dragonfly+ (Leonardo) and oversubscribed
// fat trees (MareNostrum 5): every group (pod or leaf subtree) reaches the
// rest of the machine through an aggregated uplink/downlink bundle; the
// second-level fabric is assumed non-blocking.
type UpDown struct {
	*common
	name          string
	groups        int
	nodesPerGroup int
	up, down      []int32
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
	nodes := cfg.Groups * cfg.NodesPerGroup
	u := &UpDown{
		common:        newCommon(nodes, 2*nodes+2*cfg.Groups, cfg.NICBW),
		name:          cfg.Name,
		groups:        cfg.Groups,
		nodesPerGroup: cfg.NodesPerGroup,
		up:            make([]int32, 0, cfg.Groups),
		down:          make([]int32, 0, cfg.Groups),
	}
	for g := 0; g < cfg.Groups; g++ {
		share := cfg.NodesPerGroup
		if cfg.GroupNodeShare != nil {
			share = cfg.GroupNodeShare[g]
			if share < 1 {
				share = 1
			}
		}
		bundle := float64(share) * cfg.NICBW / cfg.Oversub
		u.up = append(u.up, u.addLink(Global, bundle))
		u.down = append(u.down, u.addLink(Global, bundle))
	}
	return u, nil
}

// Name returns the configured system name.
func (u *UpDown) Name() string { return u.name }

// NumGroups returns the group (subtree/pod) count.
func (u *UpDown) NumGroups() int { return u.groups }

// GroupOf maps nodes to groups block-wise.
func (u *UpDown) GroupOf(node int) int { return node / u.nodesPerGroup }

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
	return append(buf, u.inject(src), u.up[ga], u.down[gb], u.eject(dst))
}

// Flat is a non-blocking crossbar (intra-node GPU fabric, or an idealized
// network): only injection links constrain traffic.
type Flat struct {
	*common
	name string
}

// NewFlat builds a flat crossbar over n nodes.
func NewFlat(name string, n int, nicBW float64) *Flat {
	return &Flat{common: newCommon(n, 2*n, nicBW), name: name}
}

// Name returns the configured system name.
func (f *Flat) Name() string { return f.name }

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
