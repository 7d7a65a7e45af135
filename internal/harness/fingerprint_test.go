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
		}, "9c3f7b9bf05972b6"},
		{"bfly-allreduce/bfly-bine-dd/p=16/n=16", 16, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, bfly, make([]int32, 16), coll.OpSum)
		}, "ce91e1a6c5bca9c4"},
		{"hier-allreduce/hier-bine/p=16/n=64", 16, func(c fabric.Comm) error {
			return coll.HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 64), coll.OpSum)
		}, "7e31255426812d52"},
		{"torus-bcast/bine-dh/4x4/n=1", 16, func(c fabric.Comm) error {
			return coll.TorusBcast(c, tor, core.BineDH, 0, make([]int32, 1))
		}, "29d85d2689afac2f"},
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
	"bcast/bine-tree":                  "b0d3f1c2f9fc56b0",
	"bcast/binomial-dd":                "bc95a702b1f5df5f",
	"bcast/binomial-dh":                "1b497a6f242e5786",
	"bcast/bine-scatter-allgather":     "3099866e5752138c",
	"bcast/binomial-scatter-allgather": "e5e5334e79bb36ae",
	"bcast/linear":                     "c28726f1d0599612",
	"bcast/pipeline":                   "a7ab2c8ef28f508f",
	"bcast/chain":                      "ae2d816690f8c393",
	"reduce/bine-tree":                 "5cea6a345b629402",
	"reduce/binomial-dd":               "b2c300274417cf1e",
	"reduce/binomial-dh":               "f098e581a208fde5",
	"reduce/bine-rs-gather":            "bed3747c20f589a9",
	"reduce/binomial-rs-gather":        "689a248861d657ca",
	"reduce/linear":                    "938f08f56aa23759",
	"gather/bine-tree":                 "06145cc98fc41ac9",
	"gather/binomial-dd":               "439841f445264665",
	"gather/binomial-dh":               "ae2d48a4b3761f67",
	"gather/linear":                    "26ac2fe007c58546",
	"scatter/bine-tree":                "9ec5b850ea3a7a7f",
	"scatter/binomial-dd":              "5a08636becbe7600",
	"scatter/binomial-dh":              "c440fc9cd6886b54",
	"scatter/linear":                   "3d5aa4287d92fa71",
	"reduce-scatter/bine-permute":      "0a14de2f9441a244",
	"reduce-scatter/bine-send":         "35a8e4e60ff275d9",
	"reduce-scatter/bine-block":        "6a961404b7a540e4",
	"reduce-scatter/bine-two-trans":    "6e2a576596d30e89",
	"reduce-scatter/recursive-halving": "aba2520148bf7606",
	"reduce-scatter/swing":             "6a961404b7a540e4",
	"reduce-scatter/ring":              "f318163d1c5803d8",
	"reduce-scatter/bine-fold":         "35a8e4e60ff275d9",
	"allgather/bine-permute":           "6ed8e6bc948e7b7c",
	"allgather/bine-send":              "4206864e65292bb9",
	"allgather/bine-block":             "490e038dd77155e8",
	"allgather/bine-two-trans":         "9712909ab13e28fb",
	"allgather/recursive-doubling":     "3fc9ec45df578d27",
	"allgather/swing":                  "490e038dd77155e8",
	"allgather/ring":                   "f318163d1c5803d8",
	"allgather/bruck":                  "6dd424243ab21a72",
	"allgather/sparbit":                "89c90165d9544507",
	"allgather/bine-fold":              "4206864e65292bb9",
	"allreduce/bine-lat":               "07af6b9b271c64ce",
	"allreduce/bine-bw":                "ce91e1a6c5bca9c4",
	"allreduce/recursive-doubling":     "8e3102fe421a32cf",
	"allreduce/rabenseifner":           "c7b747365a45712d",
	"allreduce/ring":                   "c22a3df2fa092e9e",
	"allreduce/swing":                  "84832c861a093424",
	"allreduce/reduce-bcast":           "fa9241455007de6d",
	"allreduce/bine-fold":              "ce91e1a6c5bca9c4",
	"alltoall/bine":                    "07af6b9b271c64ce",
	"alltoall/bruck":                   "c4e479e7e295b5e2",
	"alltoall/pairwise":                "5b8fac45bcdeecfe",
}

var torusPins = map[string]string{
	"bine-torus":     "e93909c0b0a3a9cf",
	"bine-multiport": "ba4527c55308b3eb",
	"bucket":         "ce9549d0abe511a9",
	"bine-bcast":     "0a40117927eb1ff1",
	"bine-reduce":    "704381c4c6ae2a5c",
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
