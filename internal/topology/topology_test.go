package topology

import "testing"

// routeOf is AppendRoute into a fresh slice, for assertions that keep several
// routes side by side.
func routeOf(topo Topology, src, dst int) []int32 { return topo.AppendRoute(nil, src, dst) }

// checkRoutes holds topo to the link and route contract: every link has a
// positive bandwidth, and a route is the sender's injection link, the global
// links crossed (IDs from 2·Nodes() up), then the receiver's ejection link —
// global links for inter-group traffic only.
func checkRoutes(t *testing.T, topo Topology) {
	t.Helper()
	numLinks := int32(topo.NumLinks())
	for id := range numLinks {
		if bw := topo.LinkBW(id); bw <= 0 {
			t.Fatalf("%s: link %d has bandwidth %f", topo.Name(), id, bw)
		}
	}
	n := topo.Nodes()
	firstGlobal := int32(2 * n)
	step := n/17 + 1
	for src := 0; src < n; src += step {
		for dst := 0; dst < n; dst += step {
			route := routeOf(topo, src, dst)
			if src == dst {
				if len(route) != 0 {
					t.Fatalf("%s: self route not empty", topo.Name())
				}
				continue
			}
			last := len(route) - 1
			if last < 1 || route[0] != int32(2*src) || route[last] != int32(2*dst+1) {
				t.Fatalf("%s: route %d→%d is %v, want injection %d first and ejection %d last", topo.Name(), src, dst, route, 2*src, 2*dst+1)
			}
			for _, id := range route[1:last] {
				if id < firstGlobal || id >= numLinks {
					t.Fatalf("%s: route %d→%d crosses link %d, outside the global links [%d, %d)", topo.Name(), src, dst, id, firstGlobal, numLinks)
				}
			}
			// Intra-group routes must avoid global links; inter-group
			// routes must use at least one.
			globals := last - 1
			if topo.GroupOf(src) == topo.GroupOf(dst) && globals != 0 {
				t.Fatalf("%s: intra-group route %d→%d crosses %d global links", topo.Name(), src, dst, globals)
			}
			if topo.GroupOf(src) != topo.GroupOf(dst) && globals == 0 {
				t.Fatalf("%s: inter-group route %d→%d avoids global links", topo.Name(), src, dst)
			}
		}
	}
}

func TestDragonfly(t *testing.T) {
	d, err := NewDragonfly(DragonflyConfig{
		Name: "lumi-like", Groups: 6, NodesPerGroup: 8,
		NICBW: GbpsToBytes(200), GlobalBW: GbpsToBytes(400),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes() != 48 || d.NumGroups() != 6 {
		t.Fatal("shape")
	}
	if d.GroupOf(0) != 0 || d.GroupOf(47) != 5 || d.GroupOf(8) != 1 {
		t.Fatal("grouping")
	}
	checkRoutes(t, d)
	// Distinct group pairs use distinct global links (per-pair bundles).
	r1 := routeOf(d, 0, 8)  // g0 → g1
	r2 := routeOf(d, 0, 16) // g0 → g2
	if r1[1] == r2[1] {
		t.Error("group pairs share a global link")
	}
	if _, err := NewDragonfly(DragonflyConfig{Groups: 0, NodesPerGroup: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestUpDown(t *testing.T) {
	u, err := NewUpDown(UpDownConfig{
		Name: "mn5-like", Groups: 4, NodesPerGroup: 2,
		NICBW: GbpsToBytes(200), Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRoutes(t, u)
	// 2:1 oversubscription: uplink bundle carries half the aggregate NIC
	// bandwidth of its subtree.
	route := routeOf(u, 0, 7)
	if want := 2 * GbpsToBytes(200) / 2; u.LinkBW(route[1]) != want {
		t.Errorf("uplink bw %f, want %f", u.LinkBW(route[1]), want)
	}
	// All traffic leaving one subtree shares its uplink.
	ra, rb := routeOf(u, 0, 2), routeOf(u, 1, 4)
	if ra[1] != rb[1] {
		t.Error("subtree sends use different uplinks")
	}
	if _, err := NewUpDown(UpDownConfig{Groups: 1, NodesPerGroup: 1, Oversub: 0}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFlat(t *testing.T) {
	f := NewFlat("node", 4, GbpsToBytes(900))
	checkRoutes(t, f)
	if f.NumGroups() != 1 {
		t.Error("flat groups")
	}
}

func TestTorusTopology(t *testing.T) {
	tor, err := NewTorus(TorusConfig{
		Name: "fugaku-like", Dims: []int{4, 4},
		NICBW: GbpsToBytes(54), LinkBW: GbpsToBytes(54),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 16 {
		t.Fatal("size")
	}
	checkRoutes(t, tor)
	// Neighbour route: inject + 1 hop + eject.
	if r := routeOf(tor, 0, 1); len(r) != 3 {
		t.Errorf("neighbour route %v", r)
	}
	// Fig. 16A: (0,0) → (3,3) is 2 hops on a 4×4 torus (wrap both dims).
	if r := routeOf(tor, 0, 15); len(r) != 4 {
		t.Errorf("corner route has %d links, want 4", len(r))
	}
	// Max distance in one dim of size 4 is 2 hops.
	if r := routeOf(tor, 0, 2); len(r) != 4 {
		t.Errorf("antipodal route %v", r)
	}
	// Distinct directions use distinct links.
	fwd, back := routeOf(tor, 0, 1), routeOf(tor, 1, 0)
	if fwd[1] == back[1] {
		t.Error("opposite directions share a link")
	}
	if _, err := NewTorus(TorusConfig{Dims: []int{0}}); err == nil {
		t.Error("invalid config accepted")
	}
}
