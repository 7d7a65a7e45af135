package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// TestScheduleFingerprints guards the persistent store's only soft spot:
// the disk tier invalidates on schedVersion (and fabric.CodecVersion), but
// nothing ties those constants to the schedules themselves — a PR that
// changes an algorithm's schedule without bumping schedVersion would make
// existing -trace-cache directories silently serve stale traces. This test
// pins a fingerprint (hash of the encoded trace) for one representative
// schedule of every cache family; if it fails, a recorded schedule or the
// codec changed, and you MUST bump schedVersion in engine.go (or
// fabric.CodecVersion for a format change) before updating the constants
// below. Entries for algorithms that no longer exist are skipped — removal
// orphans their store files harmlessly.
func TestScheduleFingerprints(t *testing.T) {
	fingerprint := func(tr *fabric.Trace) string {
		var buf bytes.Buffer
		if err := fabric.EncodeTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:8])
	}
	tor := core.MustTorus(4, 4)
	// Every pin is taken on the recording leg of the resolver chain — the
	// oracle the synthesizer is verified against.
	ctx := context.Background()
	eng := &Engine{DisableSynth: true}
	check := func(name, got, want string) {
		t.Helper()
		if want == "" {
			t.Errorf("%s: no pinned fingerprint (new schedule?) — add %q to the pins below", name, got)
			return
		}
		if got != want {
			t.Errorf("%s: schedule fingerprint %s, pinned %s\n"+
				"A recorded schedule (or the trace codec) changed: bump schedVersion in engine.go\n"+
				"(or fabric.CodecVersion for codec changes) so persistent trace stores invalidate,\n"+
				"then update this pin.", name, got, want)
		}
	}
	// Every registry algorithm at p=16 and every torus algorithm on the 4x4
	// torus is pinned, so no schedule feeding the flat or torus cache can
	// change silently. Pins for removed algorithms are dropped freely —
	// removal merely orphans their store files.
	for _, algo := range coll.Registry() {
		tr, err := eng.cachedTrace(ctx, algo, 16, 0)
		if err != nil {
			t.Fatalf("%v/%s: %v", algo.Coll, algo.Name, err)
		}
		check("flat/"+algo.Coll.String()+"/"+algo.Name+"/p=16", fingerprint(tr), flatPins[algo.Coll.String()+"/"+algo.Name])
	}
	for _, ta := range torusAlgos() {
		tr, err := eng.cachedTorusTrace(ctx, ta, tor, 0)
		if err != nil {
			t.Fatalf("torus %s: %v", ta.Name, err)
		}
		check("torus/"+ta.Name+"/4x4", fingerprint(tr), torusPins[ta.Name])
	}
	// The cachedNamedTrace families (Fig. 1 / Fig. 5 / Hier / AppD record
	// outside the registries) are pinned via the same shared schedule code.
	tree := core.MustTree(core.BineDH, 8, 0)
	bfly := core.MustButterfly(core.BflyBineDD, 16)
	named := []struct {
		name string
		p    int
		body func(c fabric.Comm) error
		want string
	}{
		{"tree-bcast/bine-dh/p=8/n=1", 8, func(c fabric.Comm) error {
			return coll.Bcast(c, tree, make([]int32, 1))
		}, "47d1c71357c8ccba"},
		{"bfly-allreduce/bfly-bine-dd/p=16/n=16", 16, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, bfly, make([]int32, 16), coll.OpSum)
		}, "cc85aafeeaa4f770"},
		{"hier-allreduce/hier-bine/p=16/n=64", 16, func(c fabric.Comm) error {
			return coll.HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 64), coll.OpSum)
		}, "c1c399e941c0961e"},
		{"torus-bcast/bine-dh/4x4/n=1", 16, func(c fabric.Comm) error {
			return coll.TorusBcast(c, tor, core.BineDH, 0, make([]int32, 1))
		}, "a0a4e9a6e3d237b9"},
	}
	for _, c := range named {
		tr, err := record(c.p, c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, fingerprint(tr), c.want)
	}
}

// flatPins fingerprints every registry algorithm's p=16 schedule;
// torusPins every torus algorithm's 4x4 schedule.
var flatPins = map[string]string{
	"bcast/bine-tree":                  "35a87140390cac7e",
	"bcast/binomial-dd":                "7d620dad52b59ee0",
	"bcast/binomial-dh":                "56f306b5254e6cd3",
	"bcast/bine-scatter-allgather":     "bdc9fbdb9ad0113b",
	"bcast/binomial-scatter-allgather": "03e853147971b1f2",
	"bcast/linear":                     "0cf4a768af22ef72",
	"bcast/pipeline":                   "b881e87c029616ae",
	"bcast/chain":                      "bc21ea1f28c41616",
	"reduce/bine-tree":                 "fa9162c779d38145",
	"reduce/binomial-dd":               "fa9abb5f0d29f342",
	"reduce/binomial-dh":               "7329446e436573bc",
	"reduce/bine-rs-gather":            "86790b8af06d1c1b",
	"reduce/binomial-rs-gather":        "c9d3cc1fdebd32b5",
	"reduce/linear":                    "2037f3ea5391e6c1",
	"gather/bine-tree":                 "2d90860441fbbbb7",
	"gather/binomial-dd":               "8feafd6a147946cb",
	"gather/binomial-dh":               "84ca385134d088c6",
	"gather/linear":                    "ff7a6217f04619a2",
	"scatter/bine-tree":                "2c558b13c35a06a2",
	"scatter/binomial-dd":              "aa42066ada03de54",
	"scatter/binomial-dh":              "3ef70a3e7eb4ca92",
	"scatter/linear":                   "02b02f1e6e587321",
	"reduce-scatter/bine-permute":      "8ecb7440d84996d2",
	"reduce-scatter/bine-send":         "f05de7bed648e797",
	"reduce-scatter/bine-block":        "fe66aafa4ef514ae",
	"reduce-scatter/bine-two-trans":    "360cb3f23de255e8",
	"reduce-scatter/recursive-halving": "eb6615207b9b697f",
	"reduce-scatter/swing":             "fe66aafa4ef514ae",
	"reduce-scatter/ring":              "8eaef8aad5dbe8b3",
	"reduce-scatter/bine-fold":         "f05de7bed648e797",
	"allgather/bine-permute":           "9c8775441f56a85b",
	"allgather/bine-send":              "f3a4aef194c3e9f3",
	"allgather/bine-block":             "cf1ae38aaa014dbf",
	"allgather/bine-two-trans":         "c9c4918b79fde76c",
	"allgather/recursive-doubling":     "79c7b5c451146911",
	"allgather/swing":                  "cf1ae38aaa014dbf",
	"allgather/ring":                   "8eaef8aad5dbe8b3",
	"allgather/bruck":                  "c86ffe6284377c77",
	"allgather/sparbit":                "116667aa4f3ea6d1",
	"allgather/bine-fold":              "f3a4aef194c3e9f3",
	"allreduce/bine-lat":               "48508a00647f3da8",
	"allreduce/bine-bw":                "cc85aafeeaa4f770",
	"allreduce/recursive-doubling":     "c23748c3239486d2",
	"allreduce/rabenseifner":           "7d1fdaccdfbfda96",
	"allreduce/ring":                   "7891c83b7022f90e",
	"allreduce/swing":                  "062dedaed722ffb1",
	"allreduce/reduce-bcast":           "b70179dd9ed73410",
	"allreduce/bine-fold":              "cc85aafeeaa4f770",
	"alltoall/bine":                    "48508a00647f3da8",
	"alltoall/bruck":                   "cd167cf08e6a9850",
	"alltoall/pairwise":                "370f5b33aeaa0b43",
}

var torusPins = map[string]string{
	"bine-torus":     "e3962b8faf546638",
	"bine-multiport": "e02c7682165c1718",
	"bucket":         "a82fdb0787c5ce7d",
	"bine-bcast":     "ebe6c4f7cc5e69a7",
	"bine-reduce":    "0db3e3d609194c01",
}

// TestQuickAllGolden owns the artifact hash inside tier-1: the quick "all"
// rendering of a default Engine — what `binebench -experiment all` prints —
// must hash to bench/goldens.json's quick-all entry for this architecture,
// the digest the frozen benchmark holds both binaries to. The file is read,
// not copied, so the figure has one home; an architecture it has no entry
// for (floating-point formatting may differ) skips.
func TestQuickAllGolden(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile("../../bench/goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	var goldens map[string]map[string]string
	if err := json.Unmarshal(raw, &goldens); err != nil {
		t.Fatalf("bench/goldens.json: %v", err)
	}
	want := goldens[runtime.GOARCH]["quick-all"]
	if want == "" {
		t.Skipf("bench/goldens.json has no quick-all entry for %s", runtime.GOARCH)
	}
	h := sha256.New()
	if err := RunExperiment(context.Background(), h, "all", Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("quick all hashes to %s, bench/goldens.json says %s: an artifact byte changed", got, want)
	}
}
