package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

func testParams() Params {
	return Params{
		AlphaLocal:  1e-6,
		AlphaGlobal: 2e-6,
		MsgOverhead: 5e-7,
		Gamma:       1e-10,
		MemBW:       20e9,
	}
}

// bcastTrace records a broadcast of n unit elements over the given tree
// kind on p ranks.
func bcastTrace(t *testing.T, kind core.Kind, p, n int) *fabric.Trace {
	t.Helper()
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	tree := core.MustTree(kind, p, 0)
	if err := fabric.Run(rec, func(c fabric.Comm) error {
		return coll.Bcast(c, tree, make([]int32, n))
	}); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

func identity(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

// evaluateAt scores tr at one element scale.
func evaluateAt(tr *fabric.Trace, topo topology.Topology, p Params, ev Eval, elemBytes float64) (Result, error) {
	rs, err := EvaluateSizes(tr, topo, p, ev, []float64{elemBytes})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

func TestFigure1BroadcastTraffic(t *testing.T) {
	// Fig. 1: on eight nodes with two nodes per leaf switch, a
	// distance-doubling broadcast of n bytes forwards 6n bytes across
	// subtree boundaries while the distance-halving variant forwards 3n.
	const n = 100
	groupOf := []int{0, 0, 1, 1, 2, 2, 3, 3}
	dd, _ := GlobalTraffic(bcastTrace(t, core.BinomialDD, 8, n), groupOf)
	dh, _ := GlobalTraffic(bcastTrace(t, core.BinomialDH, 8, n), groupOf)
	if dd != 6*n {
		t.Errorf("distance-doubling global traffic %d, want %d", dd, 6*n)
	}
	if dh != 3*n {
		t.Errorf("distance-halving global traffic %d, want %d", dh, 3*n)
	}
	// The Bine tree does no worse than distance halving here.
	bine, _ := GlobalTraffic(bcastTrace(t, core.BineDH, 8, n), groupOf)
	if bine > dh {
		t.Errorf("bine global traffic %d exceeds distance-halving %d", bine, dh)
	}
}

func TestEvaluateBasicProperties(t *testing.T) {
	p := 16
	tr := bcastTrace(t, core.BineDH, p, 64)
	topo, err := topology.NewUpDown(topology.UpDownConfig{
		Name: "t", Groups: 4, NodesPerGroup: 4, NICBW: 25e9, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := evaluateAt(tr, topo, testParams(), Eval{Placement: identity(p)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Messages != p-1 || res.Steps != 4 {
		t.Fatalf("result %+v", res)
	}
	if res.TotalBytes != float64(64*4*(p-1)) {
		t.Fatalf("total bytes %f", res.TotalBytes)
	}
	// Byte metrics scale exactly linearly with the element scale.
	res2, err := evaluateAt(tr, topo, testParams(), Eval{Placement: identity(p)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.GlobalBytes-2*res.GlobalBytes) > 1e-9 {
		t.Fatalf("global bytes did not scale: %f vs %f", res2.GlobalBytes, res.GlobalBytes)
	}
	if res2.Time <= res.Time {
		t.Fatal("time not monotone in message size")
	}
	// Placement shorter than the trace fails.
	if _, err := evaluateAt(tr, topo, testParams(), Eval{Placement: identity(2)}, 4); err == nil {
		t.Fatal("short placement accepted")
	}
}

func TestContentionSerializesSharedLinks(t *testing.T) {
	// Two concurrent messages leaving the same subtree share its uplink
	// and take twice as long as one; two messages on distinct uplinks do
	// not.
	mk := func(fromA, toA, fromB, toB int) *fabric.Trace {
		return fabric.NewTrace(8, []fabric.Record{
			{From: fromA, To: toA, Step: 0, Elems: 1 << 20},
			{From: fromB, To: toB, Step: 0, Elems: 1 << 20},
		})
	}
	topo, err := topology.NewUpDown(topology.UpDownConfig{
		Name: "t", Groups: 4, NodesPerGroup: 2, NICBW: 10e9, Oversub: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := identity(8)
	shared, err := evaluateAt(mk(0, 2, 1, 3), topo, testParams(), Eval{Placement: pl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	separate, err := evaluateAt(mk(0, 2, 3, 1), topo, testParams(), Eval{Placement: pl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Time <= 1.8*separate.Time {
		t.Fatalf("shared uplink %.3g not ≈2× separate %.3g", shared.Time, separate.Time)
	}
}

func TestStepsSerializeAndMessagesOverlap(t *testing.T) {
	// Same two messages: in one step they overlap, in two steps they pay
	// alpha twice and serialize.
	one := fabric.NewTrace(4, []fabric.Record{
		{From: 0, To: 1, Step: 0, Elems: 1000},
		{From: 2, To: 3, Step: 0, Elems: 1000},
	})
	two := fabric.NewTrace(4, []fabric.Record{
		{From: 0, To: 1, Step: 0, Elems: 1000},
		{From: 2, To: 3, Step: 1, Elems: 1000},
	})
	topo := topology.NewFlat("f", 4, 10e9)
	pl := identity(4)
	a, err := evaluateAt(one, topo, testParams(), Eval{Placement: pl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := evaluateAt(two, topo, testParams(), Eval{Placement: pl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Time <= a.Time || b.Steps != 2 || a.Steps != 1 {
		t.Fatalf("steps: one=%+v two=%+v", a, b)
	}
}

func TestPerMessageOverheadCharged(t *testing.T) {
	bulk := fabric.NewTrace(2, []fabric.Record{
		{From: 0, To: 1, Step: 0, Elems: 1000},
	})
	var recs []fabric.Record
	for seg := 0; seg < 10; seg++ {
		recs = append(recs, fabric.Record{From: 0, To: 1, Step: 0, Elems: 100})
	}
	segmented := fabric.NewTrace(2, recs)
	topo := topology.NewFlat("f", 2, 10e9)
	pl := identity(2)
	a, _ := evaluateAt(bulk, topo, testParams(), Eval{Placement: pl}, 4)
	b, _ := evaluateAt(segmented, topo, testParams(), Eval{Placement: pl}, 4)
	want := a.Time + 9*testParams().MsgOverhead
	if math.Abs(b.Time-want) > 1e-12 {
		t.Fatalf("segmented %.9g, want %.9g", b.Time, want)
	}
}

func TestReductionComputeAndOverlap(t *testing.T) {
	tr := fabric.NewTrace(2, []fabric.Record{
		{From: 0, To: 1, Step: 0, Elems: 1 << 20},
	})
	topo := topology.NewFlat("f", 2, 10e9)
	pl := identity(2)
	p := testParams()
	plain, _ := evaluateAt(tr, topo, p, Eval{Placement: pl}, 4)
	reduced, _ := evaluateAt(tr, topo, p, Eval{Placement: pl, Reduces: true}, 4)
	overlapped, _ := evaluateAt(tr, topo, p, Eval{Placement: pl, Reduces: true, Overlap: 0.8}, 4)
	if !(plain.Time < overlapped.Time && overlapped.Time < reduced.Time) {
		t.Fatalf("ordering: plain %.3g overlapped %.3g reduced %.3g",
			plain.Time, overlapped.Time, reduced.Time)
	}
	copied, _ := evaluateAt(tr, topo, p, Eval{Placement: pl, CopyBytes: 1e9}, 4)
	if copied.Time <= plain.Time {
		t.Fatal("copy bytes not charged")
	}
}

func TestTraceScalingExact(t *testing.T) {
	// The methodology cornerstone: executing a collective at block size k
	// produces exactly k× the per-message elements of the unit-block
	// trace, so rescaling unit traces is exact.
	p := 16
	b := core.MustButterfly(core.BflyBineDD, p)
	trace := func(bs int) *fabric.Trace {
		rec := fabric.NewRecorder(fabric.NewMem(p))
		defer rec.Close()
		if err := fabric.Run(rec, func(c fabric.Comm) error {
			out := make([]int32, bs)
			return coll.ReduceScatter(c, b, coll.Permute, make([]int32, p*bs), out, coll.OpSum)
		}); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	t1, t3 := trace(1), trace(3)
	if t1.NumRecords() != t3.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", t1.NumRecords(), t3.NumRecords())
	}
	if t1.NumSteps() != t3.NumSteps() {
		t.Fatalf("step counts differ: %d vs %d", t1.NumSteps(), t3.NumSteps())
	}
	for s := 0; s < t1.NumSteps(); s++ {
		lo, hi := t1.StepBounds(s)
		if lo3, hi3 := t3.StepBounds(s); lo != lo3 || hi != hi3 {
			t.Fatalf("step %d: records [%d,%d) vs [%d,%d)", s, lo, hi, lo3, hi3)
		}
		for i := lo; i < hi; i++ {
			if t1.From(i) != t3.From(i) || t1.To(i) != t3.To(i) {
				t.Fatalf("record %d shape differs: %d->%d vs %d->%d", i, t1.From(i), t1.To(i), t3.From(i), t3.To(i))
			}
			if t3.Elems(i) != 3*t1.Elems(i) {
				t.Fatalf("record %d: %d elems vs %d (want exact 3×)", i, t1.Elems(i), t3.Elems(i))
			}
		}
	}
}

func TestBineReducesGlobalTrafficAtScale(t *testing.T) {
	// End-to-end check of the headline claim. The Eq. 2 analysis compares
	// schedules with the same step ordering (distance doubling vs distance
	// doubling), and the Bine advantage appears on *fragmented*
	// allocations, where group runs have irregular lengths and the
	// XOR-aligned binomial pairs lose their alignment luck — exactly the
	// real-system situation the paper's Fig. 5 measures with Slurm data.
	p := 256
	groupOf := make([]int, p)
	rng := rand.New(rand.NewSource(7))
	g, left := 0, 0
	for i := range groupOf {
		if left == 0 {
			g++
			left = 5 + rng.Intn(30) // irregular per-group run lengths
		}
		groupOf[i] = g
		left--
	}
	trace := func(kind core.ButterflyKind) *fabric.Trace {
		rec := fabric.NewRecorder(fabric.NewMem(p))
		defer rec.Close()
		b := core.MustButterfly(kind, p)
		if err := fabric.Run(rec, func(c fabric.Comm) error {
			return coll.AllreduceRsAg(c, b, make([]int32, p), coll.OpSum)
		}); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	bine, totB := GlobalTraffic(trace(core.BflyBineDD), groupOf)
	binom, totN := GlobalTraffic(trace(core.BflyBinomialDD), groupOf)
	if totB != totN {
		t.Fatalf("total volumes differ: %d vs %d", totB, totN)
	}
	if bine >= binom {
		t.Fatalf("bine global traffic %d not below binomial %d", bine, binom)
	}
	red := 1 - float64(bine)/float64(binom)
	if red > 0.34 {
		t.Fatalf("reduction %.3f exceeds the 33%% theoretical bound", red)
	}
	t.Logf("global traffic: bine=%d binomial=%d reduction=%.1f%%", bine, binom, 100*red)
}

func ExampleGlobalTraffic() {
	tr := fabric.NewTrace(4, []fabric.Record{
		{From: 0, To: 1, Elems: 10},
		{From: 0, To: 2, Elems: 10},
	})
	groupOf := []int{0, 0, 1, 1}
	global, total := GlobalTraffic(tr, groupOf)
	fmt.Println(global, total)
	// Output: 10 20
}
