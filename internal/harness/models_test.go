package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math"
	"slices"
	"testing"

	"binetrees/internal/topology"
)

// TestNetworkModelsPinned pins every network model the artifacts replay on
// by content: the sha256 of each model's link count, of every link's
// bandwidth in ID order and of its routes over a strided sample of
// (src, dst) pairs. The models are TopologyFor of every quick, full and
// ppn [64] placement of LUMI, Leonardo and MareNostrum, hier's GPU clusters,
// and the Fugaku tori of every FugakuShapes entry and of 4×4. It also holds
// each sampled route to the shape the replay reads: the sender's injection
// link 2·src, then links past the injection block, then the receiver's
// ejection link 2·dst+1. A change to how a model lays out, sizes or routes
// its links fails here, naming the model, before it shows as a diff in a
// rendered artifact.
func TestNetworkModelsPinned(t *testing.T) {
	t.Parallel()
	want := map[string]string{
		"lumi/quick":        "694728fb435d5c80dbbf8701f69c8c35533b392808641c30130fed57a822a3f3",
		"lumi/full":         "faafb15033b4c86f4708b669578b38de0975a23be353b01e57bef04850d14873",
		"lumi/[64]":         "eb5ac8a659f21319f4bf67f9b16fb177185a54e296997e40836031cc32498fb1",
		"leonardo/quick":    "a8c2fa326da60c98aadbc0a15f72816725cd263ed5dbb0132c82fba53bd929df",
		"leonardo/full":     "9fcf9b6215fb0badc64cf130a401d64acb54fe1995978facf1e79269d277d2d8",
		"leonardo/[64]":     "81e7d425dc0dac1886cea8e77802d16f1d366bcd831d5df7c22faff65fe0b26a",
		"marenostrum/quick": "10fa58be6352545c5c755df6253e45a1d0a159eb9cb2d70669367a25c2e4be2b",
		"marenostrum/full":  "10fa58be6352545c5c755df6253e45a1d0a159eb9cb2d70669367a25c2e4be2b",
		"marenostrum/[64]":  "194081e2cf9aeaa22fbbac83d2c7bfd4ac8df1f6b5538a69d340ead0f6eec59d",
		"hier":              "aa1696040d171a0080ed2fbd3dd7c5849b9db60cd8ac45d8f6cd02d54f862503",
		"fugaku[2 2 2]":     "267e7a1840b47f57c424513f4b741eeb21177f375b79f8da4565db420fea849b",
		"fugaku[4 4 4]":     "345222eb399639dca22e13679c67787a814d92ccd75d301f8721a29d2f64015b",
		"fugaku[8 8 8]":     "e3c8f9da3edc8ae82f295e10175b63d03a839c14ec82c08686bb708985245ef3",
		"fugaku[64 64]":     "54b8463531d12815c80ff36f30cd796bf5eceb700b84b16149e001006a7b9de8",
		"fugaku[32 256]":    "b3da055e7b7390c44592f2c39bb1ab851096ab896c506e789b9c448bc0278064",
		"fugaku[4 4]":       "954e61b5bbea437be7a7f5386eda906fc03b01102a85827cee776960cc89918b",
	}
	got := map[string]string{}
	sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	for _, sys := range []System{LUMI(), Leonardo(), MareNostrum()} {
		for _, tc := range []struct {
			name   string
			counts []int
		}{
			{"quick", Options{Quick: true}.nodeCounts(sys)},
			{"full", Options{}.nodeCounts(sys)},
			{"[64]", []int{64}},
		} {
			nodes, err := Placements(sys, tc.counts)
			if err != nil {
				t.Fatalf("%s %v: %v", sys.Key, tc.counts, err)
			}
			h := sha256.New()
			for _, p := range tc.counts {
				topo, err := sys.TopologyFor(nodes[p])
				if err != nil {
					t.Fatalf("%s p=%d: %v", sys.Key, p, err)
				}
				hashModel(t, h, topo)
			}
			got[sys.Key+"/"+tc.name] = sum(h)
		}
	}
	// hier's GPU clusters (planHier): four fully connected GPUs per node.
	h := sha256.New()
	for _, p := range []int{16, 64, 256, 512} {
		topo, err := topology.NewUpDown(topology.UpDownConfig{
			Name: "gpu-cluster", Groups: p / 4, NodesPerGroup: 4,
			NICBW: topology.GbpsToBytes(1600), Oversub: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		hashModel(t, h, topo)
	}
	got["hier"] = sum(h)
	for _, dims := range append(FugakuShapes(), []int{4, 4}) {
		topo, err := FugakuTopology(dims)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashModel(t, h, topo)
		got[fmt.Sprint("fugaku", dims)] = sum(h)
	}
	if len(got) != len(want) {
		t.Errorf("hashed %d models, pinned %d", len(got), len(want))
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		if got[key] != want[key] {
			t.Errorf("%s: network model hash %s, pinned %s", key, got[key], want[key])
		}
	}
}

// hashModel writes topo's link count, each link's bandwidth bits in ID order
// and the routes of a strided sample of (src, dst) pairs to h, checking each
// sampled route's shape.
func hashModel(t *testing.T, h hash.Hash, topo topology.Topology) {
	t.Helper()
	n, numLinks := topo.Nodes(), topo.NumLinks()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	word(uint64(numLinks))
	for id := range int32(numLinks) {
		word(math.Float64bits(topo.LinkBW(id)))
	}
	step := n*n/2048 + 1
	if step%n == 0 {
		step++ // a multiple of n would sample one destination only
	}
	var route []int32
	for k := 0; k < n*n; k += step {
		src, dst := k/n, k%n
		route = topo.AppendRoute(route[:0], src, dst)
		word(uint64(len(route)))
		for _, id := range route {
			word(uint64(id))
		}
		if src == dst {
			if len(route) != 0 {
				t.Fatalf("%s: route %d→%d is %v, want none", topo.Name(), src, dst, route)
			}
			continue
		}
		last := len(route) - 1
		if last < 1 || route[0] != int32(2*src) || route[last] != int32(2*dst+1) {
			t.Fatalf("%s: route %d→%d is %v, want injection %d first and ejection %d last", topo.Name(), src, dst, route, 2*src, 2*dst+1)
		}
		for _, id := range route[1:last] {
			if id < int32(2*n) || id >= int32(numLinks) {
				t.Fatalf("%s: route %d→%d crosses link %d, outside the global links [%d, %d)", topo.Name(), src, dst, id, 2*n, numLinks)
			}
		}
	}
}
