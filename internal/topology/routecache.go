package topology

// RouteCache is a compatibility shim, not a cache: routes are computed, not
// stored (Topology.AppendRoute). It survives only because the frozen
// benchmark probe (bench/probe) compiles against Topology.Routes and
// (*RouteCache).Route; nothing inside the repository calls either. The next
// benchmark PR that may edit the probe deletes this type and takes Routes
// out of the Topology interface.
type RouteCache struct {
	topo Topology
	buf  []int32
}

// Route computes the route from src to dst into the shim's own buffer. The
// result is valid until the next call; not for concurrent use.
func (rc *RouteCache) Route(src, dst int) []int32 {
	rc.buf = rc.topo.AppendRoute(rc.buf[:0], src, dst)
	return rc.buf
}
