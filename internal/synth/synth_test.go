package synth

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// recordSchedule is the oracle: the same schedule body executed for real on
// the in-process goroutine fabric under a Recorder. The short timeout bounds
// fuzz iterations that hit a genuinely unsupported (algorithm, p, root)
// combination at runtime.
func recordSchedule(p int, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	f := fabric.NewMem(p)
	f.SetTimeout(5 * time.Second)
	rec := fabric.NewRecorder(f)
	defer rec.Close()
	if err := fabric.Run(rec, fn); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

func encodeBytes(t *testing.T, tr *fabric.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fabric.EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAlgoEquivalence pins the tentpole property for one registry schedule:
// synthesis and recording either both fail, or produce byte-identical
// encoded traces.
func checkAlgoEquivalence(t *testing.T, algo coll.Algorithm, p, root int) {
	t.Helper()
	name := fmt.Sprintf("%v/%s p=%d root=%d", algo.Coll, algo.Name, p, root)
	synthesize := func() (*fabric.Trace, error) {
		s, err := algo.Pattern(p, root, p)
		if err != nil {
			return nil, err
		}
		return Schedule(s)
	}
	record := func() (*fabric.Trace, error) {
		run, err := algo.Make(p, root)
		if err != nil {
			return nil, err
		}
		return recordSchedule(p, func(c fabric.Comm) error {
			inLen, outLen := algo.Coll.InOutLens(p, p)
			in := make([]int32, inLen)
			var out []int32
			if outLen > 0 {
				out = make([]int32, outLen)
			}
			return run(c, root, in, out, coll.OpSum)
		})
	}
	st, serr := synthesize()
	rt, rerr := record()
	if (serr == nil) != (rerr == nil) {
		t.Fatalf("%s: synth err %v, record err %v", name, serr, rerr)
	}
	if serr != nil {
		return
	}
	if !bytes.Equal(encodeBytes(t, st), encodeBytes(t, rt)) {
		t.Fatalf("%s: synthesized trace is not byte-identical to the recording\n synth  %d records\n record %d records",
			name, st.Messages(), rt.Messages())
	}
}

// TestRegistryScheduleEquivalence sweeps every registered algorithm over
// representative (p, root) combinations: the synthesized trace must encode
// byte-identically to the fabric recording for every one of them. p=64
// pins the closed-form patterns and ranges (the Bine alltoall's, the
// two-transmission runs) past the small rank counts.
func TestRegistryScheduleEquivalence(t *testing.T) {
	combos := []struct{ p, root int }{{2, 1}, {4, 0}, {16, 0}, {16, 5}, {8, 7}, {64, 0}, {64, 37}}
	for _, algo := range coll.Registry() {
		for _, c := range combos {
			checkAlgoEquivalence(t, algo, c.p, c.root)
		}
	}
}

// TestAdHocScheduleEquivalence covers the schedule families outside the
// registry — torus, named tree broadcast, butterfly allreduce and the
// hierarchical composite — via Run, mirroring the harness's
// cachedNamedTrace and torus recording sites.
func TestAdHocScheduleEquivalence(t *testing.T) {
	tor44 := core.MustTorus(4, 4)
	tor222 := core.MustTorus(2, 2, 2)
	tree := core.MustTree(core.BineDH, 8, 0)
	bfly := core.MustButterfly(core.BflyBineDD, 16)
	cases := []struct {
		name string
		p    int
		fn   func(c fabric.Comm) error
	}{
		{"torus-allreduce/4x4", 16, func(c fabric.Comm) error {
			return coll.TorusAllreduce(c, tor44, make([]int32, 16*4), coll.OpSum)
		}},
		{"torus-multiport-allreduce/4x4", 16, func(c fabric.Comm) error {
			return coll.TorusMultiportAllreduce(c, tor44, make([]int32, 16*4), coll.OpSum)
		}},
		{"bucket-allreduce/2x2x2", 8, func(c fabric.Comm) error {
			return coll.BucketAllreduce(c, tor222, make([]int32, 8*6), coll.OpSum)
		}},
		{"torus-bcast/4x4", 16, func(c fabric.Comm) error {
			return coll.TorusBcast(c, tor44, core.BineDH, 0, make([]int32, 1))
		}},
		{"torus-reduce/4x4", 16, func(c fabric.Comm) error {
			return coll.TorusReduce(c, tor44, core.BineDH, 0, make([]int32, 16), make([]int32, 16), coll.OpSum)
		}},
		{"tree-bcast/p=8", 8, func(c fabric.Comm) error {
			return coll.Bcast(c, tree, make([]int32, 1))
		}},
		{"bfly-allreduce/p=16", 16, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, bfly, make([]int32, 16), coll.OpSum)
		}},
		{"hier-allreduce/p=16", 16, func(c fabric.Comm) error {
			return coll.HierarchicalAllreduce(c, 4, core.BflyBineDD, make([]int32, 64), coll.OpSum)
		}},
	}
	for _, tc := range cases {
		st, serr := Run(tc.p, tc.fn)
		rt, rerr := recordSchedule(tc.p, tc.fn)
		if serr != nil || rerr != nil {
			t.Fatalf("%s: synth err %v, record err %v", tc.name, serr, rerr)
		}
		if !bytes.Equal(encodeBytes(t, st), encodeBytes(t, rt)) {
			t.Fatalf("%s: synthesized trace is not byte-identical to the recording", tc.name)
		}
	}
}

// FuzzSynthEquivalence fuzzes the byte-equivalence property over random
// (algorithm, ranks, root) within registry bounds.
func FuzzSynthEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(0))
	f.Add(uint8(7), uint8(12), uint8(3))
	f.Add(uint8(23), uint8(8), uint8(7))
	f.Add(uint8(44), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, algoIdx, pp, rr uint8) {
		reg := coll.Registry()
		algo := reg[int(algoIdx)%len(reg)]
		p := 2 + int(pp)%31 // p in [2, 32]
		root := int(rr) % p
		checkAlgoEquivalence(t, algo, p, root)
	})
}

// synthAlloc returns the record count of one cold synthesis — Pattern plus
// Schedule, what the harness resolver runs — and the bytes it allocated.
func synthAlloc(t *testing.T, c coll.Collective, name string, p int) (records, bytes uint64) {
	t.Helper()
	algo, ok := coll.Find(coll.Registry(), c, name)
	if !ok {
		t.Fatalf("%v/%s not registered", c, name)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := algo.Pattern(p, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Schedule(s)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return uint64(tr.Messages()), after.TotalAlloc - before.TotalAlloc
}

// TestSynthAllocBudget is the deterministic complexity guard on the cold
// path: allocation, unlike time, repeats exactly, so it can gate. Every
// schedule here emits Θ(p log p) records while each rank's walk legitimately
// allocates Θ(p) working elements (its copy of the n = p element vector), so
// bytes per record grow like p/log p and doubling p multiplies allocation by
// at most 4 against 2.2 for the records. The p=256 budget catches a helper
// that rebuilds an O(p) structure per rank (a tree per rank put
// reduce/bine-rs-gather at 225× its trace); the growth bound catches an
// O(p²)-per-rank one (BineAlltoall's per-item block lists: 2413× at p=256,
// ×6.9 per doubling). The butterfly steps allocate no block lists — their
// position ranges and circular runs are closed-form and the Bine alltoall
// has a closed-form pattern — so what the budgets cover is the per-rank
// vector copies, the trace builder and, for bine-rs-gather, the tree
// gather.
func TestSynthAllocBudget(t *testing.T) {
	const recordBytes = 20 // columnar footprint of one trace record
	cases := []struct {
		coll coll.Collective
		name string
		// budget bounds the bytes allocated at p=256 in units of the trace's
		// own footprint: 1.5× the measured ratio, rounded up.
		budget uint64
	}{
		{coll.CAlltoall, "bine", 5},                 // measured 3.2
		{coll.CAllreduce, "bine-bw", 7},             // 4.6
		{coll.CReduceScatter, "bine-two-trans", 20}, // 12.9
		{coll.CReduce, "bine-rs-gather", 29},        // 18.7
		{coll.CReduceScatter, "bine-fold", 18},      // 11.6
	}
	for _, tc := range cases {
		r256, b256 := synthAlloc(t, tc.coll, tc.name, 256)
		r512, b512 := synthAlloc(t, tc.coll, tc.name, 512)
		recGrowth, allocGrowth := float64(r512)/float64(r256), float64(b512)/float64(b256)
		t.Logf("%v/%s: p=256 %d records, %d B = %.1f× trace; p=512 ×%.2f records, ×%.2f bytes",
			tc.coll, tc.name, r256, b256, float64(b256)/float64(r256*recordBytes), recGrowth, allocGrowth)
		if limit := tc.budget * r256 * recordBytes; b256 > limit {
			t.Errorf("%v/%s p=256: allocated %d B for %d records, budget %d× the trace = %d B",
				tc.coll, tc.name, b256, r256, tc.budget, limit)
		}
		if allocGrowth > 2*recGrowth {
			t.Errorf("%v/%s: p 256→512 multiplies records by %.2f but allocation by %.2f (limit 2× the records' factor)",
				tc.coll, tc.name, recGrowth, allocGrowth)
		}
	}
}
