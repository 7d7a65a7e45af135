package topology

import (
	"fmt"
	"testing"

	"binetrees/internal/core"
)

// testTopologies builds one instance of each topology family at a size
// where every routing case (intra-group, inter-group, multi-hop wraps, the
// even-dimension tie that breaks toward the positive direction) occurs.
func testTopologies(t testing.TB) map[string]Topology {
	t.Helper()
	df, err := NewDragonfly(DragonflyConfig{
		Name: "df", Groups: 4, NodesPerGroup: 3, NICBW: 25e9, GlobalBW: 50e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := NewUpDown(UpDownConfig{
		Name: "ud", Groups: 3, NodesPerGroup: 4, NICBW: 25e9, Oversub: 2,
		GroupNodeShare: []int{4, 0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tor, err := NewTorus(TorusConfig{
		Name: "tor", Dims: []int{4, 3, 2}, NICBW: 6.8e9, LinkBW: 6.8e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Topology{
		"dragonfly": df,
		"updown":    ud,
		"flat":      NewFlat("flat", 9, 25e9),
		"torus":     tor,
	}
}

// definitionalRoute is the routing the package shipped before AppendRoute,
// kept as the oracle: a freshly allocated []int per call, with every
// family's link IDs counted off in the order the link table was once built —
// injection links, then Dragonfly group pairs (source-major, skipping the
// diagonal), UpDown (uplink, downlink) per group, or torus links
// node-major, dimension, +/− — and the torus walked through core.Torus
// coordinates.
func definitionalRoute(topo Topology, src, dst int) []int {
	if src == dst {
		return nil
	}
	inject, eject := 2*src, 2*dst+1
	ga, gb := topo.GroupOf(src), topo.GroupOf(dst)
	switch t := topo.(type) {
	case *Dragonfly:
		if ga == gb {
			return []int{inject, eject}
		}
		id := 2 * t.Nodes()
		for a := 0; a < t.NumGroups(); a++ {
			for b := 0; b < t.NumGroups(); b++ {
				if a == ga && b == gb {
					return []int{inject, id, eject}
				}
				if a != b {
					id++
				}
			}
		}
	case *UpDown:
		if ga == gb {
			return []int{inject, eject}
		}
		up, down := make([]int, t.NumGroups()), make([]int, t.NumGroups())
		id := 2 * t.Nodes()
		for g := range up {
			up[g], down[g] = id, id+1
			id += 2
		}
		return []int{inject, up[ga], down[gb], eject}
	case *Flat:
		return []int{inject, eject}
	case *Torus:
		geom := t.Geometry()
		dimLinks := make([][][2]int, geom.P())
		id := 2 * geom.P()
		for node := range dimLinks {
			dimLinks[node] = make([][2]int, geom.NDims())
			for d := range dimLinks[node] {
				dimLinks[node][d] = [2]int{id, id + 1}
				id += 2
			}
		}
		route := []int{inject}
		cur := src
		cc, dc := geom.Coord(src), geom.Coord(dst)
		for d := 0; d < geom.NDims(); d++ {
			size := geom.Dims[d]
			fwd := core.Mod(dc[d]-cc[d], size)
			dir, hops := +1, fwd
			if back := size - fwd; fwd != 0 && back < fwd {
				dir, hops = -1, back
			}
			for h := 0; h < hops; h++ {
				idx := 0
				if dir < 0 {
					idx = 1
				}
				route = append(route, dimLinks[cur][d][idx])
				cur = geom.Displace(cur, d, dir)
			}
		}
		return append(route, eject)
	}
	panic(fmt.Sprintf("no definitional route for %T", topo))
}

// TestAppendRouteMatchesDefinition checks, for every topology family and
// every (src, dst) pair, that AppendRoute appends exactly the definitional
// route after whatever buf already held, and nothing for src == dst.
func TestAppendRouteMatchesDefinition(t *testing.T) {
	for name, topo := range testTopologies(t) {
		t.Run(name, func(t *testing.T) {
			prefix := []int32{-7, -8}
			buf := append([]int32(nil), prefix...)
			n := topo.Nodes()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					want := definitionalRoute(topo, src, dst)
					buf = topo.AppendRoute(buf[:len(prefix)], src, dst)
					if buf[0] != prefix[0] || buf[1] != prefix[1] {
						t.Fatalf("route %d→%d overwrote the buffer's prefix: %v", src, dst, buf)
					}
					got := buf[len(prefix):]
					if len(got) != len(want) {
						t.Fatalf("route %d→%d: %v, want %v", src, dst, got, want)
					}
					for i := range want {
						if int(got[i]) != want[i] {
							t.Fatalf("route %d→%d: %v, want %v", src, dst, got, want)
						}
					}
				}
			}
		})
	}
}

// TestAppendRouteAllocatesNothing pins the replay hot path's contract: with
// a buffer that already has the capacity, no family's AppendRoute allocates.
func TestAppendRouteAllocatesNothing(t *testing.T) {
	for name, topo := range testTopologies(t) {
		t.Run(name, func(t *testing.T) {
			n := topo.Nodes()
			buf := make([]int32, 0, 64)
			allocs := testing.AllocsPerRun(10, func() {
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						buf = topo.AppendRoute(buf[:0], src, dst)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("AppendRoute allocates %.0f times per all-pairs sweep", allocs)
			}
		})
	}
}

var routeSink []int32

// BenchmarkAppendRoute measures one route computation per family on the
// all-pairs sweep of the test instances; it must report 0 allocs/op.
func BenchmarkAppendRoute(b *testing.B) {
	topos := testTopologies(b)
	for _, name := range []string{"dragonfly", "updown", "flat", "torus"} {
		topo := topos[name]
		b.Run(name, func(b *testing.B) {
			n := topo.Nodes()
			buf := make([]int32, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = topo.AppendRoute(buf[:0], i%n, i/n%n)
			}
			routeSink = buf
		})
	}
}
