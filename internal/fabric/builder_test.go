package fabric

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// noSelfSchedule is randomSchedule with self-sends redirected to a real
// peer: the TraceBuilder's pattern endpoints reject rank→rank sends (as the
// in-process transport does), while the null transport the reference
// recorder wraps accepts anything.
func noSelfSchedule(rng *rand.Rand, p int) [][]sendRec {
	sched := randomSchedule(rng, p)
	for r := range sched {
		for i := range sched[r] {
			if sched[r][i].To == r {
				sched[r][i].To = (r + 1) % p
			}
		}
	}
	return sched
}

// buildSchedule drives every rank's send list serially through the builder's
// pattern endpoints — the synthesis execution model.
func buildSchedule(t *testing.T, b *TraceBuilder, sched [][]sendRec) {
	t.Helper()
	for r := range sched {
		c := b.Comm(r)
		payload := make([]int32, 8)
		for _, m := range sched[r] {
			if err := c.Send(m.To, m.Step, m.Sub, payload[:m.Elems]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func encodeBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBuilderMatchesRecorder pins the synthesis guarantee at the fabric
// layer: the same send pattern, driven serially through TraceBuilder
// endpoints and concurrently through a recording fabric run, captures the
// same per-sender (step, to, sub, elems) columns — the encoding carries no
// sub, so the shards are where a wrong tag would show — and merges to
// byte-identical traces under the codec, whose logical sequence, expanded
// through StepBounds, is the single-mutex reference recorder's.
func checkBuilderMatchesRecorder(t *testing.T, rng *rand.Rand) {
	t.Helper()
	p := 2 + rng.Intn(9)
	sched := noSelfSchedule(rng, p)
	ref := newReferenceRecorder(nullFabric{p: p})
	rec := NewRecorder(ref)
	runSchedule(rec, sched)
	b := NewTraceBuilder(p)
	buildSchedule(t, b, sched)
	for r := range b.shards {
		got, want := b.shards[r], &rec.shards[r]
		if !slices.Equal(got.step, want.step) || !slices.Equal(got.to, want.to) ||
			!slices.Equal(got.sub, want.sub) || !slices.Equal(got.elems, want.elems) {
			t.Fatalf("rank %d: built shard columns diverge from recorded ones (p=%d)\n built %+v", r, p, got)
		}
	}
	built, recorded := b.Trace(), rec.Trace()
	checkLayout(t, built)
	checkLayout(t, recorded)
	if got, want := encodeBytes(t, built), encodeBytes(t, recorded); !bytes.Equal(got, want) {
		t.Fatalf("built trace diverges from recorded trace (p=%d)\n built %+v", p, records(built))
	}
	var want []Record
	for _, m := range ref.Trace() {
		want = append(want, m.Record)
	}
	if got := records(built); !slices.Equal(got, want) {
		t.Fatalf("built trace's logical sequence diverges from the reference recorder's (p=%d)\n got %+v\nwant %+v", p, got, want)
	}
	// The builder reset on Trace: a second merge of the same sends must
	// reproduce the same bytes from a clean slate.
	buildSchedule(t, b, sched)
	if !bytes.Equal(encodeBytes(t, b.Trace()), encodeBytes(t, built)) {
		t.Fatal("builder reuse after Trace diverged")
	}
}

// TestTraceBuilderMatchesRecorder is the byte-equivalence property test over
// randomized schedules with clustered steps, duplicate tags and out-of-order
// step emission.
func TestTraceBuilderMatchesRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 60; i++ {
		checkBuilderMatchesRecorder(t, rng)
	}
}

// FuzzTraceBuilderMerge fuzzes the same property over arbitrary seeds,
// alongside FuzzShardedRecorderMerge in the existing merge fuzz machinery.
func FuzzTraceBuilderMerge(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkBuilderMatchesRecorder(t, rand.New(rand.NewSource(seed)))
	})
}

// TestRepeatedStepsShareClass pins the layout on the shape the schedules
// produce: steps A B A _ C A (the fourth empty) store A, B and C once, the
// non-adjacent copies of A share its class, the empty step is class 0, and
// the builder's hashed merge finds exactly the classes NewTrace's exact dedup
// does.
func TestRepeatedStepsShareClass(t *testing.T) {
	a := []sendRec{{Record{From: 0, To: 1, Elems: 2}, 0}, {Record{From: 2, To: 3, Elems: 2}, 0}}
	b := []sendRec{{Record{From: 1, To: 0, Elems: 2}, 0}, {Record{From: 3, To: 2, Elems: 2}, 0}}
	c := []sendRec{{Record{From: 0, To: 2, Elems: 4}, 0}}
	var recs []Record
	sched := make([][]sendRec, 4)
	for step, body := range [][]sendRec{a, b, a, nil, c, a} {
		for _, m := range body {
			m.Step = step
			recs = append(recs, m.Record)
			sched[m.From] = append(sched[m.From], m)
		}
	}
	want := NewTrace(4, recs)
	builder := NewTraceBuilder(4)
	buildSchedule(t, builder, sched)
	built := builder.Trace()
	for name, tr := range map[string]*Trace{"NewTrace": want, "TraceBuilder": built} {
		checkLayout(t, tr)
		classes := make([]int, tr.NumSteps())
		for s := range classes {
			classes[s] = tr.StepClass(s)
		}
		if !slices.Equal(classes, []int{1, 2, 1, 0, 3, 1}) || tr.NumClasses() != 4 ||
			tr.NumRecords() != 5 || tr.Messages() != 9 || tr.TotalElems() != 20 {
			t.Errorf("%s: step classes %v of %d, %d stored of %d messages, %d elems", name, classes,
				tr.NumClasses(), tr.NumRecords(), tr.Messages(), tr.TotalElems())
		}
		if !slices.Equal(records(tr), recs) {
			t.Errorf("%s: logical sequence %+v, want %+v", name, records(tr), recs)
		}
	}
	if !reflect.DeepEqual(built, want) {
		t.Fatal("hashed merge and exact dedup disagree")
	}
}

// TestMergeSurvivesHashCollisions swaps in a hash under which every pair of
// step bodies collides. The hashed merge must then detect each collision —
// by record count, or record by record, including against a slot the
// colliding class has not written yet — and fall back to the exact dedup:
// two different bodies with one hash are two classes, and the trace equals
// the one built with the real hash.
func TestMergeSurvivesHashCollisions(t *testing.T) {
	cases := []struct {
		name    string
		p       int
		sends   []sendRec
		classes int // the empty class included
	}{
		{"equal lengths differ in elems", 2, []sendRec{
			{Record{From: 0, To: 1, Step: 0, Elems: 1}, 0},
			{Record{From: 0, To: 1, Step: 1, Elems: 2}, 0},
			{Record{From: 0, To: 1, Step: 2, Elems: 1}, 0},
		}, 3},
		// Rank 0 is merged first: its copy of step 1 meets the slot rank 1
		// fills for step 0 before rank 1 has filled it.
		{"check against an unwritten slot", 3, []sendRec{
			{Record{From: 1, To: 2, Step: 0, Elems: 0}, 0},
			{Record{From: 0, To: 0, Step: 1, Elems: 0}, 0},
		}, 3},
		{"lengths differ", 3, []sendRec{
			{Record{From: 0, To: 1, Step: 0, Elems: 1}, 0},
			{Record{From: 0, To: 1, Step: 1, Elems: 1}, 0},
			{Record{From: 1, To: 2, Step: 1, Elems: 1}, 0},
			{Record{From: 0, To: 1, Step: 2, Elems: 1}, 0},
		}, 3},
	}
	defer func(real func(uint64) uint64) { classKey = real }(classKey)
	for _, tc := range cases {
		classKey = func(uint64) uint64 { return 0 }
		sched := make([][]sendRec, tc.p)
		var recs []Record
		for _, m := range tc.sends {
			sched[m.From] = append(sched[m.From], m)
			recs = append(recs, m.Record)
		}
		rec := NewRecorder(nullFabric{p: tc.p})
		runSchedule(rec, sched)
		got := rec.Trace()
		classKey = func(h uint64) uint64 { return h }
		want := NewTrace(tc.p, recs)
		checkLayout(t, got)
		if got.NumClasses() != tc.classes || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d classes (want %d), logical sequence %+v; want %+v", tc.name,
				got.NumClasses(), tc.classes, records(got), records(want))
		}
	}
}

// TestPatternCommValidation pins the endpoint's misuse surface: the builder
// must reject exactly what the recording stack rejects — bad tags (Recorder)
// and bad destinations (transport) — so a schedule bug cannot slip into a
// synthesized trace.
func TestPatternCommValidation(t *testing.T) {
	b := NewTraceBuilder(4)
	c := b.Comm(1)
	cases := []struct {
		name string
		err  error
	}{
		{"negative step", c.Send(2, -1, 0, nil)},
		{"negative sub", c.Send(2, 0, -1, nil)},
		{"to out of range", c.Send(4, 0, 0, nil)},
		{"negative to", c.Send(-1, 0, 0, nil)},
		{"self send", c.Send(1, 0, 0, nil)},
		{"recv out of range", c.Recv(4, 0, 0, nil)},
		{"recv self", c.Recv(1, 0, 0, nil)},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if tr := b.Trace(); tr.NumRecords() != 0 {
		t.Fatalf("rejected sends reached the trace: %d records", tr.NumRecords())
	}
	if err := c.Send(2, 0, 0, make([]int32, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Recv(0, 0, 0, make([]int32, 3)); err != nil {
		t.Fatal(err)
	}
	tr := b.Trace()
	if recs := records(tr); len(recs) != 1 || recs[0] != (Record{From: 1, To: 2, Step: 0, Elems: 3}) {
		t.Fatalf("trace %+v", recs)
	}
}

// buildStepOrder drives a schedule through a StepBuilder the way a plan
// does: step by step, each step's sends in mergeShards' (from, to, sub,
// elems) order, sized for exactly the sends given, with extra empty steps
// closed at the end.
func buildStepOrder(t *testing.T, p int, sched [][]sendRec, trailing int) *Trace {
	t.Helper()
	var all []sendRec
	for _, sends := range sched {
		all = append(all, sends...)
	}
	slices.SortFunc(all, func(a, b sendRec) int {
		return cmp.Or(cmp.Compare(a.Step, b.Step), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To),
			cmp.Compare(a.Sub, b.Sub), cmp.Compare(a.Elems, b.Elems))
	})
	steps := trailing
	if len(all) > 0 {
		steps += all[len(all)-1].Step + 1
	}
	b := NewStepBuilder(p, steps, len(all))
	i := 0
	for s := range steps {
		for ; i < len(all) && all[i].Step == s; i++ {
			if err := b.Send(all[i].From, all[i].To, all[i].Sub, all[i].Elems); err != nil {
				t.Fatal(err)
			}
		}
		b.EndStep()
	}
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStepBuilderMatchesTraceBuilder is the step-order builder's property
// test: over the randomized schedules the TraceBuilder is held to the
// recorder with — clustered and repeated steps, duplicate tags, empty steps
// — the step-order trace encodes byte-identically to the shard merge's,
// trailing empty steps are dropped, the trace holds no spare capacity
// (checkLayout), and it all holds under a hash that makes every pair of
// step bodies collide.
func TestStepBuilderMatchesTraceBuilder(t *testing.T) {
	defer func(real func(uint64) uint64) { classKey = real }(classKey)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		p := 1 + rng.Intn(9)
		var sched [][]sendRec
		if p > 1 {
			sched = noSelfSchedule(rng, p)
		}
		tb := NewTraceBuilder(p)
		buildSchedule(t, tb, sched)
		want := encodeBytes(t, tb.Trace())
		for _, key := range []func(uint64) uint64{func(h uint64) uint64 { return h }, func(uint64) uint64 { return 0 }} {
			classKey = key
			got := buildStepOrder(t, p, sched, i%3)
			checkLayout(t, got)
			if !bytes.Equal(encodeBytes(t, got), want) {
				t.Fatalf("schedule %d (p=%d): step-order trace %+v diverges from the shard merge's", i, p, records(got))
			}
		}
	}
}

// TestStepBuilderRepeatAndValidation pins the rest of the builder's surface:
// Repeat files a step under an earlier step's class, empty ones included,
// without its records; Send rejects what patternComm rejects, with the same
// error text; and Trace rejects what NewClassTrace rejects.
func TestStepBuilderRepeatAndValidation(t *testing.T) {
	b := NewStepBuilder(3, 5, 2)
	for _, r := range []int{0, 1} {
		if err := b.Send(r, r+1, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	b.EndStep() // step 0: class 1
	b.EndStep() // step 1: empty
	b.Repeat(0)
	b.Repeat(1)
	tr, err := b.Trace()
	if err != nil {
		t.Fatal(err)
	}
	classes := []int{}
	for s := range tr.NumSteps() {
		classes = append(classes, tr.StepClass(s))
	}
	if !slices.Equal(classes, []int{1, 0, 1}) || tr.NumRecords() != 2 || tr.Messages() != 4 {
		t.Fatalf("step classes %v, %d stored of %d messages", classes, tr.NumRecords(), tr.Messages())
	}

	pc := NewTraceBuilder(4).Comm(1)
	sb := NewStepBuilder(4, 1, 1)
	for _, tc := range []struct{ to, sub int }{{2, -1}, {4, 0}, {-1, 0}, {1, 0}} {
		want, got := pc.Send(tc.to, 0, tc.sub, nil), sb.Send(1, tc.to, tc.sub, 0)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("send 1→%d sub %d: step builder says %v, pattern endpoint %v", tc.to, tc.sub, got, want)
		}
	}
	if err := sb.Send(1, 2, 0, -1); err != nil {
		t.Fatal(err)
	}
	sb.EndStep()
	if _, err := sb.Trace(); err == nil {
		t.Error("a negative elems reached a trace")
	}
}
