package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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
		}, "f63296feb1c154f1"},
		{"bfly-allreduce/bfly-bine-dd/p=16/n=16", 16, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, bfly, make([]int32, 16), coll.OpSum)
		}, "60e86c514d90969a"},
		{"hier-allreduce/hier-bine/p=16/n=64", 16, func(c fabric.Comm) error {
			return coll.HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 64), coll.OpSum)
		}, "9eac0231a12be493"},
		{"torus-bcast/bine-dh/4x4/n=1", 16, func(c fabric.Comm) error {
			return coll.TorusBcast(c, tor, core.BineDH, 0, make([]int32, 1))
		}, "7ae9998ad19b23ba"},
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
	"bcast/bine-tree":                  "4aa1086088422354",
	"bcast/binomial-dd":                "d3c1f53268771ddc",
	"bcast/binomial-dh":                "6c79bc8e7cb2048d",
	"bcast/bine-scatter-allgather":     "c7f41b693b06656c",
	"bcast/binomial-scatter-allgather": "756ecb9fc459b96c",
	"bcast/linear":                     "4fd1d4d39831e3e5",
	"bcast/pipeline":                   "e518179add538c4a",
	"bcast/chain":                      "b55d7a13d093ca67",
	"reduce/bine-tree":                 "b4ab7bdb6397a7b1",
	"reduce/binomial-dd":               "59de836e50d186da",
	"reduce/binomial-dh":               "3de0ddb2902f4260",
	"reduce/bine-rs-gather":            "226ed7391955e6ec",
	"reduce/binomial-rs-gather":        "25233d528625206e",
	"reduce/linear":                    "405ffbe585344666",
	"gather/bine-tree":                 "24a187bf4c93c94e",
	"gather/binomial-dd":               "753b3121b175aeae",
	"gather/binomial-dh":               "094e9b16f8061007",
	"gather/linear":                    "c2193784d143ef24",
	"scatter/bine-tree":                "f8179c843ad38862",
	"scatter/binomial-dd":              "dfc43f26580322b3",
	"scatter/binomial-dh":              "98549a204838fdc7",
	"scatter/linear":                   "07d6e7d4eeedd3f1",
	"reduce-scatter/bine-permute":      "1eaf8da4e1a6398a",
	"reduce-scatter/bine-send":         "1c1e379c73af93b8",
	"reduce-scatter/bine-block":        "2083fadf29081755",
	"reduce-scatter/bine-two-trans":    "9a6ebbaabafb729b",
	"reduce-scatter/recursive-halving": "5464c7d4d2806554",
	"reduce-scatter/swing":             "2083fadf29081755",
	"reduce-scatter/ring":              "2165e8400dbe04fe",
	"reduce-scatter/bine-fold":         "1c1e379c73af93b8",
	"allgather/bine-permute":           "e57c97081eafa532",
	"allgather/bine-send":              "a5c032e34078fa19",
	"allgather/bine-block":             "27cbfe9577a2e442",
	"allgather/bine-two-trans":         "bc573877d942e3c5",
	"allgather/recursive-doubling":     "b7869db52a676ec9",
	"allgather/swing":                  "27cbfe9577a2e442",
	"allgather/ring":                   "2165e8400dbe04fe",
	"allgather/bruck":                  "c0134eae3284bde7",
	"allgather/sparbit":                "c7225f2dfff5c87c",
	"allgather/bine-fold":              "a5c032e34078fa19",
	"allreduce/bine-lat":               "2fe8c322bafa02c5",
	"allreduce/bine-bw":                "60e86c514d90969a",
	"allreduce/recursive-doubling":     "53c3ce1f51fe13ec",
	"allreduce/rabenseifner":           "38d879613382a830",
	"allreduce/ring":                   "a77331da2ee16ac8",
	"allreduce/swing":                  "dec720f8e490be71",
	"allreduce/reduce-bcast":           "9d706b39bec1830e",
	"allreduce/bine-fold":              "60e86c514d90969a",
	"alltoall/bine":                    "2fe8c322bafa02c5",
	"alltoall/bruck":                   "f25d2c653d53f7fa",
	"alltoall/pairwise":                "7c6dff2afdcade31",
}

var torusPins = map[string]string{
	"bine-torus":     "2c571d84f6350901",
	"bine-multiport": "4911e491277c2ec7",
	"bucket":         "33673da3c727d744",
	"bine-bcast":     "ff38133770fb782e",
	"bine-reduce":    "495b5eaceb1f728b",
}
