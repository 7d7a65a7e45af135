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

// checkAlgoEquivalence pins the tentpole property for one registry schedule
// over n vector elements: synthesis and recording either both fail, or
// produce byte-identical encoded traces. It reports whether both succeeded.
func checkAlgoEquivalence(t *testing.T, algo coll.Algorithm, p, root, n int) bool {
	t.Helper()
	name := fmt.Sprintf("%v/%s p=%d root=%d n=%d", algo.Coll, algo.Name, p, root, n)
	synthesize := func() (*fabric.Trace, error) {
		s, err := algo.Pattern(p, root, n)
		if err != nil {
			return nil, err
		}
		return Schedule(s)
	}
	st, serr := synthesize()
	rt, rerr := recordAlgo(algo, p, root, n)
	if (serr == nil) != (rerr == nil) {
		t.Fatalf("%s: synth err %v, record err %v", name, serr, rerr)
	}
	if serr != nil {
		return false
	}
	if !bytes.Equal(encodeBytes(t, st), encodeBytes(t, rt)) {
		t.Fatalf("%s: synthesized trace is not byte-identical to the recording\n synth  %d records\n record %d records",
			name, st.Messages(), rt.Messages())
	}
	return true
}

// recordAlgo records a registry algorithm's schedule on n elements.
func recordAlgo(algo coll.Algorithm, p, root, n int) (*fabric.Trace, error) {
	run, err := algo.Make(p, root)
	if err != nil {
		return nil, err
	}
	return recordSchedule(p, func(c fabric.Comm) error {
		inLen, outLen := algo.Coll.InOutLens(p, n)
		in := make([]int32, inLen)
		var out []int32
		if outLen > 0 {
			out = make([]int32, outLen)
		}
		return run(c, root, in, out, coll.OpSum)
	})
}

// TestRegistryScheduleEquivalence sweeps every registered algorithm over
// representative (p, root) combinations: the synthesized trace must encode
// byte-identically to the fabric recording for every one of them. p=64
// pins the plans' ranges and runs (the Bine alltoall's, the
// two-transmission runs) past the small rank counts; the odd and
// non-power-of-two counts pin the others' — the ring family's among them —
// where the rank arithmetic wraps unevenly.
func TestRegistryScheduleEquivalence(t *testing.T) {
	combos := []struct{ p, root int }{{2, 1}, {4, 0}, {16, 0}, {16, 5}, {8, 7}, {64, 0}, {64, 37}}
	other := []struct{ p, root int }{{3, 2}, {5, 0}, {12, 7}}
	for _, algo := range coll.Registry() {
		for _, c := range combos {
			checkAlgoEquivalence(t, algo, c.p, c.root, c.p)
		}
		if algo.Pow2Only {
			continue
		}
		for _, c := range other {
			checkAlgoEquivalence(t, algo, c.p, c.root, c.p)
		}
	}
}

// TestTorusScheduleEquivalence holds every coll.TorusRegistry entry's
// Pattern — a walk of its Make body on one shared buffer pair — to a
// recording on fresh vectors, on the quick fig11b shapes and a 4×4 torus,
// at the element count the harness records (p blocks of 2·NDims) and
// roots 0 and p/3. Every one must synthesize.
func TestTorusScheduleEquivalence(t *testing.T) {
	for _, dims := range [][]int{{2, 2, 2}, {4, 4, 4}, {8, 2}, {4, 4}} {
		tor := core.MustTorus(dims...)
		p := tor.P()
		for _, algo := range coll.TorusRegistry(tor) {
			for _, root := range []int{0, p / 3} {
				if !checkAlgoEquivalence(t, algo, p, root, p*2*tor.NDims()) {
					t.Errorf("torus %v %v/%s root=%d: neither synthesized nor recorded", dims, algo.Coll, algo.Name, root)
				}
			}
		}
	}
}

// TestPlanMatchesWalk holds every planned schedule — each registry
// algorithm with a Synth, and Fig. 5's butterfly allreduces — to the generic
// walk of its executor body through a fabric.TraceBuilder, by encoded bytes,
// at the largest p the artifacts use: 8 192 for fig11b's flat set, 1 024 for
// pairwise, 2 048 for Fig. 5 and 512 for the quick-only rest. The ring
// family runs at 4 098, just past a power of two, where its rank arithmetic
// wraps unevenly: its walk at 8 192 would emit 134 M sends. The walk, not a
// recording, is the reference here: it emits the same sends without a
// goroutine per rank, and the tests above hold it to the recording. Bruck's
// alltoall is the exception: its executor reads the item counts it
// receives, which a walk leaves zero, so its plan is held to a recording.
func TestPlanMatchesWalk(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the walks emit 67 M sends into ~600 MB of shards")
	}
	type row struct {
		coll coll.Collective
		name string
		p    int
	}
	var rows []row
	for _, name := range []string{"bine-permute", "bine-send", "recursive-halving", "recursive-doubling", "bruck"} {
		rows = append(rows, row{coll.CReduceScatter, name, 8192}, row{coll.CAllgather, name, 8192})
	}
	for _, name := range []string{"rabenseifner", "recursive-doubling"} {
		rows = append(rows, row{coll.CAllreduce, name, 8192})
	}
	for _, c := range []coll.Collective{coll.CReduceScatter, coll.CAllgather, coll.CAllreduce} {
		rows = append(rows, row{c, "ring", 4098})
	}
	for _, c := range []coll.Collective{coll.CReduceScatter, coll.CAllgather, coll.CAllreduce, coll.CAlltoall} {
		for _, name := range []string{"bine-block", "bine-two-trans", "swing", "sparbit", "bine-lat", "bine-bw", "bine", "bruck"} {
			rows = append(rows, row{c, name, 512})
		}
	}
	rows = append(rows, row{coll.CAlltoall, "pairwise", 1024})
	reg := coll.Registry()
	seen := map[string]bool{}
	for _, r := range rows {
		algo, ok := coll.Find(reg, r.coll, r.name)
		if !ok || seen[r.coll.String()+"/"+r.name] {
			continue // a name another collective registers, or one listed twice
		}
		seen[r.coll.String()+"/"+r.name] = true
		if algo.Synth == nil {
			t.Errorf("%v/%s: not planned", r.coll, r.name)
			continue
		}
		planned, err := algo.Pattern(r.p, 0, r.p)
		if err != nil {
			t.Fatal(err)
		}
		algo.Synth = nil
		walked, err := algo.Pattern(r.p, 0, r.p)
		if err != nil {
			t.Fatal(err)
		}
		if r.coll == coll.CAlltoall && r.name == "bruck" {
			walked = walkFunc(func() (*fabric.Trace, error) { return recordAlgo(algo, r.p, 0, r.p) })
		}
		comparePlanToWalk(t, fmt.Sprintf("%v/%s p=%d", r.coll, r.name, r.p), planned, walked)
	}
	for _, algo := range reg {
		if algo.Synth != nil && !seen[algo.Coll.String()+"/"+algo.Name] {
			t.Errorf("%v/%s: planned, but not in this table", algo.Coll, algo.Name)
		}
	}
	const p = 2048
	for _, kind := range []core.ButterflyKind{core.BflyBineDD, core.BflyBinomialDD} {
		b := core.MustButterfly(kind, p)
		planned, err := coll.AllreduceRsAgPlan(b, p)
		if err != nil {
			t.Fatal(err)
		}
		walked := walkFunc(func() (*fabric.Trace, error) {
			return Run(p, func(c fabric.Comm) error { return coll.AllreduceRsAg(c, b, make([]int32, p), coll.OpSum) })
		})
		comparePlanToWalk(t, fmt.Sprintf("bfly-allreduce/%v p=%d", kind, p), planned, walked)
	}
}

type walkFunc func() (*fabric.Trace, error)

func (f walkFunc) Synthesize() (*fabric.Trace, error) { return f() }

func comparePlanToWalk(t *testing.T, name string, planned, walked coll.Synthesizer) {
	t.Helper()
	want, err := walked.Synthesize()
	if err != nil {
		t.Fatalf("%s: walk: %v", name, err)
	}
	got, err := planned.Synthesize()
	if err != nil {
		t.Fatalf("%s: plan: %v", name, err)
	}
	if !bytes.Equal(encodeBytes(t, got), encodeBytes(t, want)) {
		t.Errorf("%s: plan (%d steps, %d records) differs from the walk (%d steps, %d records)",
			name, got.NumSteps(), got.NumRecords(), want.NumSteps(), want.NumRecords())
	}
}

// TestAdHocScheduleEquivalence covers the schedule families outside the
// registries — named tree broadcast, butterfly allreduce and the
// hierarchical composite — via Run, mirroring the harness's
// cachedNamedTrace sites.
func TestAdHocScheduleEquivalence(t *testing.T) {
	tree := core.MustTree(core.BineDH, 8, 0)
	bfly := core.MustButterfly(core.BflyBineDD, 16)
	cases := []struct {
		name string
		p    int
		fn   func(c fabric.Comm) error
	}{
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
		checkAlgoEquivalence(t, algo, p, root, p)
	})
}

// synthAlloc returns the trace of one cold synthesis over n elements —
// Pattern plus Schedule, what the harness resolver runs — and the bytes it
// allocated.
func synthAlloc(t *testing.T, algo coll.Algorithm, p, n int) (tr *fabric.Trace, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := algo.Pattern(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = Schedule(s)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return tr, after.TotalAlloc - before.TotalAlloc
}

func findAlgo(t *testing.T, c coll.Collective, name string) coll.Algorithm {
	t.Helper()
	algo, ok := coll.Find(coll.Registry(), c, name)
	if !ok {
		t.Fatalf("%v/%s not registered", c, name)
	}
	return algo
}

// TestSynthAllocBudget is the deterministic complexity guard on the cold
// path: allocation, unlike time, repeats exactly, so it can gate. A planned
// schedule allocates the trace it returns and a few small per-step
// buffers, so at the p its artifacts use its budget is twice the trace's
// resident size (MemBytes); the least of three runs keeps a stray
// allocation elsewhere in the test binary out of the count. The walked
// schedules — bine-rs-gather and bine-fold here — and the planned ones with
// the longest history are also held to a budget at p=256 in units of their
// logical records' footprint, 1.5× the measured ratio rounded up, and to a
// growth bound: they emit Θ(p log p) records, so doubling p multiplies
// records by 2.2, and allocation may grow at most twice as fast. The p=256
// budget catches a helper that rebuilds an O(p) structure per rank (a tree
// per rank put reduce/bine-rs-gather at 225× its trace); the growth bound
// catches an O(p²)-per-rank one (BineAlltoall's per-item block lists: 2413×
// at p=256, ×6.9 per doubling). What the walked budgets cover is each
// rank's working copy of the n = p element vector, the trace builder's
// shards and, for bine-rs-gather, the tree gather. The walked torus
// allreduce has one row, in the same units, at the p = 4 096 the Fugaku
// sweep uses.
func TestSynthAllocBudget(t *testing.T) {
	const recordBytes = 20 // columnar footprint of one trace record
	cases := []struct {
		coll   coll.Collective
		name   string
		budget uint64
	}{
		{coll.CAlltoall, "bine", 2},                // measured 0.9
		{coll.CAllreduce, "bine-bw", 1},            // 0.5
		{coll.CReduceScatter, "bine-two-trans", 2}, // 1.0
		{coll.CReduce, "bine-rs-gather", 29},       // 18.7 (walked)
		{coll.CReduceScatter, "bine-fold", 18},     // 11.6 (walked)
	}
	for _, tc := range cases {
		algo := findAlgo(t, tc.coll, tc.name)
		tr256, b256 := synthAlloc(t, algo, 256, 256)
		tr512, b512 := synthAlloc(t, algo, 512, 512)
		r256, r512 := uint64(tr256.Messages()), uint64(tr512.Messages())
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
	// The walked torus allreduce on Fugaku's 64×64 shape (p = 4 096), at the
	// harness's n = p·2·NDims: its Make builds one butterfly for both
	// dimensions, so what the budget covers is each rank's sub-communicators
	// and the trace builder's shards. A butterfly rebuilt per rank call, or
	// a staging buffer per phase, breaks it.
	const torusBudget = 12 // measured 7.5
	tor := core.MustTorus(64, 64)
	torus, _ := coll.Find(coll.TorusRegistry(tor), coll.CAllreduce, "bine-torus")
	tr, b := synthAlloc(t, torus, tor.P(), tor.P()*2*tor.NDims())
	recs := uint64(tr.Messages())
	t.Logf("allreduce/bine-torus 64x64: %d records, %d B = %.1f× trace", recs, b, float64(b)/float64(recs*recordBytes))
	if limit := torusBudget * recs * recordBytes; b > limit {
		t.Errorf("allreduce/bine-torus 64x64: allocated %d B for %d records, budget %d× the trace = %d B",
			b, recs, torusBudget, limit)
	}
	planned := []struct {
		coll coll.Collective
		name string
		p    int
	}{
		{coll.CReduceScatter, "ring", 4096},
		{coll.CAllgather, "ring", 4096},
		{coll.CAllreduce, "ring", 4096},
		{coll.CAlltoall, "pairwise", 1024},
		{coll.CAllgather, "sparbit", 512},
		{coll.CReduceScatter, "bine-block", 512},
		{coll.CAllreduce, "swing", 512},
		{coll.CReduceScatter, "bine-permute", 8192},
	}
	for _, tc := range planned {
		var tr *fabric.Trace
		least := ^uint64(0)
		for range 3 {
			var b uint64
			tr, b = synthAlloc(t, findAlgo(t, tc.coll, tc.name), tc.p, tc.p)
			least = min(least, b)
		}
		foot := uint64(tr.MemBytes())
		t.Logf("%v/%s p=%d: %d B = %.2f× the trace's %d B", tc.coll, tc.name, tc.p, least, float64(least)/float64(foot), foot)
		if least > 2*foot {
			t.Errorf("%v/%s p=%d: allocated %d B, budget 2× the trace's %d B", tc.coll, tc.name, tc.p, least, foot)
		}
	}
}
