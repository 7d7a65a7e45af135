package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"slices"
	"testing"
)

// TestPlacementsPinned pins the allocator's output by content: the sha256 of
// every rank→node map Placements returns for LUMI, Leonardo and MareNostrum
// at the quick and full node counts (MareNostrum's are the same) and at
// ppn's lone [64], and of every job node list the Fig. 5 study samples on
// its two machines at both scales.
// Every artifact's numbers rest on these placements, so a change to the
// allocator, the workload churn or its random stream fails here first, naming
// the sequence, instead of as a diff in a rendered artifact.
func TestPlacementsPinned(t *testing.T) {
	t.Parallel()
	want := map[string]string{
		"lumi/quick":          "b9f62142c8e6ab88c60a5379c7db552bc1a0eda496a29a3fd52c2bdf044c245e",
		"lumi/full":           "0532d0ca143015c6548114f79f95c197bb404f95303a2fa620cb99633ed50058",
		"lumi/[64]":           "720240b4c6d2018ae39caaf4cb18f0274f42560dfe6e7aac159c17498cdc3adf",
		"leonardo/quick":      "6dcade49c1685a4f7321253e71b42138d1ac38e0373734d56ed1579f76465357",
		"leonardo/full":       "af892f6f55eeb1679f30bdef323d47735ebdc56ff52a9ba75402ed696fe18885",
		"leonardo/[64]":       "29b7557660ca1a8bba4642a7dfba464d66b5fb4e1f8d069ac98632f2467ca6cc",
		"marenostrum/quick":   "858267e1aeec06167180c36f05d612b67390b0b69848b997494d971c52cdbe23",
		"marenostrum/full":    "858267e1aeec06167180c36f05d612b67390b0b69848b997494d971c52cdbe23",
		"marenostrum/[64]":    "4ef85baa2e8fa7fa7fb7d5336a7a3c065b52a121596150c0c9c5c1e0350eea12",
		"fig5/quick/leonardo": "44c88ddb11a173d7bbfea1233d6cf8fc399441af5820cdb50e5c62b98eff5c80",
		"fig5/quick/lumi":     "4975b98fd1fab111efece141a24ac8c09b96200517ae5890c1bf889d45701597",
		"fig5/full/leonardo":  "1c3b42d141fecc357c44a7a24d3d8186f15cdd888298b1cad2741315c4c00495",
		"fig5/full/lumi":      "d33272324f2ac3486fec11eb8633377f3b60472ffc31b5a745f92be69674a16f",
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
				fmt.Fprintln(h, p, nodes[p])
			}
			got[sys.Key+"/"+tc.name] = sum(h)
		}
	}
	for _, quick := range []bool{true, false} {
		scale := map[bool]string{true: "quick", false: "full"}[quick]
		for _, sc := range fig5Cases(quick) {
			wl := FragmentingWorkload(sc.machine, sc.maxP, sc.seed)
			wl.Run(fig5Warmup)
			h := sha256.New()
			for _, job := range wl.Run(sc.jobs) {
				fmt.Fprintln(h, job.Nodes)
			}
			got["fig5/"+scale+"/"+sc.key] = sum(h)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		if got[key] != want[key] {
			t.Errorf("%s: placements hash %s, pinned %s", key, got[key], want[key])
		}
	}
}
