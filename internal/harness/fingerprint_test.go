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
		}, "a999010f9d971e40"},
		{"bfly-allreduce/bfly-bine-dd/p=16/n=16", 16, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, bfly, make([]int32, 16), coll.OpSum)
		}, "9141b07ab83934ca"},
		{"hier-allreduce/hier-bine/p=16/n=64", 16, func(c fabric.Comm) error {
			return coll.HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 64), coll.OpSum)
		}, "cec5b5270d72201e"},
		{"torus-bcast/bine-dh/4x4/n=1", 16, func(c fabric.Comm) error {
			return coll.TorusBcast(c, tor, core.BineDH, 0, make([]int32, 1))
		}, "24bff48a82f1d607"},
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
	"bcast/bine-tree":                  "b1046187bc361bc5",
	"bcast/binomial-dd":                "e0a390aa69d36ade",
	"bcast/binomial-dh":                "d8d9c49d7b51f6e1",
	"bcast/bine-scatter-allgather":     "fcad98b358f3ab84",
	"bcast/binomial-scatter-allgather": "d2e7f70b31c04fee",
	"bcast/linear":                     "22aed8ba174866d3",
	"bcast/pipeline":                   "676a59e397e16a98",
	"bcast/chain":                      "b6ba168a306c1358",
	"reduce/bine-tree":                 "c708914fdf47eb02",
	"reduce/binomial-dd":               "355f7b156164b4b9",
	"reduce/binomial-dh":               "01d3bbc6ba60e06a",
	"reduce/bine-rs-gather":            "0b147072bdbec1f6",
	"reduce/binomial-rs-gather":        "f148a3ab26a31d63",
	"reduce/linear":                    "54ca2f2b474296f7",
	"gather/bine-tree":                 "e514eedc6ba58007",
	"gather/binomial-dd":               "8a7fd1c0f8b5d2a5",
	"gather/binomial-dh":               "12bcc3449833bfb1",
	"gather/linear":                    "839861ab5e3d3589",
	"scatter/bine-tree":                "bba1bcb0b941c45a",
	"scatter/binomial-dd":              "36198b224bdf42c7",
	"scatter/binomial-dh":              "b1a7182f7ed5c810",
	"scatter/linear":                   "79499fd93df0e27b",
	"reduce-scatter/bine-permute":      "1b397e71dad183a5",
	"reduce-scatter/bine-send":         "e78098708837b5a3",
	"reduce-scatter/bine-block":        "258099a251a2902d",
	"reduce-scatter/bine-two-trans":    "160b2d18fc99687b",
	"reduce-scatter/recursive-halving": "cc5c16e30062ff20",
	"reduce-scatter/swing":             "258099a251a2902d",
	"reduce-scatter/ring":              "9444a52d66f6d9df",
	"reduce-scatter/bine-fold":         "e78098708837b5a3",
	"allgather/bine-permute":           "be3b89826c75330f",
	"allgather/bine-send":              "9fcf921c3167e2ee",
	"allgather/bine-block":             "af4b83f14298d9e1",
	"allgather/bine-two-trans":         "f869b16c3dfd736e",
	"allgather/recursive-doubling":     "bdcfebc72994d8ef",
	"allgather/swing":                  "af4b83f14298d9e1",
	"allgather/ring":                   "9444a52d66f6d9df",
	"allgather/bruck":                  "5c3c45e7ee1ecdd6",
	"allgather/sparbit":                "095ebf71a64e2ee3",
	"allgather/bine-fold":              "9fcf921c3167e2ee",
	"allreduce/bine-lat":               "df1204683025f4a1",
	"allreduce/bine-bw":                "9141b07ab83934ca",
	"allreduce/recursive-doubling":     "5b1acf108e889700",
	"allreduce/rabenseifner":           "c2b58baafc377d5f",
	"allreduce/ring":                   "2efe3be40320c7f6",
	"allreduce/swing":                  "fbd14f2ea17e2114",
	"allreduce/reduce-bcast":           "0b01bfb396d27263",
	"allreduce/bine-fold":              "9141b07ab83934ca",
	"alltoall/bine":                    "df1204683025f4a1",
	"alltoall/bruck":                   "c574d93cfa5d6b41",
	"alltoall/pairwise":                "d2f44932110bae4b",
}

var torusPins = map[string]string{
	"bine-torus":     "6c6af6169c948e51",
	"bine-multiport": "0d77675629c36e2e",
	"bucket":         "5b7b49e264df3ff8",
	"bine-bcast":     "8552e579fee31935",
	"bine-reduce":    "8a19dfa048038303",
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
