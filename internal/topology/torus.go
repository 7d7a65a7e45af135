package topology

import (
	"fmt"

	"binetrees/internal/core"
)

// Torus is a Fugaku-like k-dimensional torus. Every inter-node hop uses a
// dedicated per-(node, dimension, direction) link; routing is
// dimension-ordered and minimal (ties broken toward the positive
// direction). Following the paper's observation that "on a torus, all links
// can be considered oversubscribed", torus links are global links, so the
// traffic-reduction metric counts byte·hops.
type Torus struct {
	common
	torusBW float64
	geom    core.Torus
	// stride[d] is the node-id distance of one step along dimension d.
	stride []int
}

// TorusConfig sizes a Torus topology.
type TorusConfig struct {
	Name string
	Dims []int
	// NICBW is the per-direction injection bandwidth (one NIC per
	// direction on Fugaku; the cost model exploits this through the
	// per-direction links, so injection here is per-NIC).
	NICBW float64
	// LinkBW is the capacity of each inter-node torus link.
	LinkBW float64
}

// NewTorus builds the topology.
func NewTorus(cfg TorusConfig) (*Torus, error) {
	geom, err := core.NewTorus(cfg.Dims...)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	t := &Torus{common: common{cfg.Name, geom.P(), cfg.NICBW}, torusBW: cfg.LinkBW, geom: geom}
	for d := 0; d < geom.NDims(); d++ {
		t.stride = append(t.stride, geom.DimStride(d))
	}
	return t, nil
}

// dimLink is the link leaving node along dimension d: back = 0 for the
// positive direction, 1 for the negative.
func (t *Torus) dimLink(node, d, back int) int32 {
	return t.firstGlobal() + int32(2*(node*len(t.stride)+d)+back)
}

// NumLinks counts the injection links and two links per node and dimension.
func (t *Torus) NumLinks() int { return 2*t.nodes + 2*t.nodes*len(t.stride) }

// LinkBW is the NIC bandwidth on injection links, the torus link's
// otherwise.
func (t *Torus) LinkBW(id int32) float64 { return t.linkBW(id, t.torusBW) }

// Geometry exposes the underlying coordinate system.
func (t *Torus) Geometry() core.Torus { return t.geom }

// NumGroups treats every node as its own group: any inter-node hop counts
// as oversubscribed traffic.
func (t *Torus) NumGroups() int { return t.nodes }

// GroupOf is the identity.
func (t *Torus) GroupOf(node int) int { return node }

// Routes returns the bench/probe shim.
func (t *Torus) Routes() *RouteCache { return &RouteCache{topo: t} }

// AppendRoute walks dimension order, taking the shorter ring direction in
// each dimension and appending one link per hop. Coordinates come from the
// strides and cur advances by ±stride with wrap, so the walk allocates
// nothing.
func (t *Torus) AppendRoute(buf []int32, src, dst int) []int32 {
	if src == dst {
		return buf
	}
	buf = append(buf, t.inject(src))
	// rs and rd are src and dst with the dimensions already walked taken
	// off, so one division each yields the next coordinate.
	cur, rs, rd := src, src, dst
	for d, stride := range t.stride {
		size := t.geom.Dims[d]
		c, cd := rs/stride, rd/stride
		rs, rd = rs-c*stride, rd-cd*stride
		hops, back, step := cd-c, 0, 1
		if hops < 0 {
			hops += size
		}
		if rev := size - hops; hops != 0 && rev < hops {
			hops, back, step = rev, 1, -1
		}
		for ; hops > 0; hops-- {
			buf = append(buf, t.dimLink(cur, d, back))
			c += step
			cur += step * stride
			if c == size { // wrapped past the last coordinate
				c, cur = 0, cur-size*stride
			} else if c < 0 {
				c, cur = size-1, cur+size*stride
			}
		}
	}
	return append(buf, t.eject(dst))
}
