package fabric

import (
	"bytes"
	"math/rand"
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
// byte-identical traces under the codec.
func checkBuilderMatchesRecorder(t *testing.T, rng *rand.Rand) {
	t.Helper()
	p := 2 + rng.Intn(9)
	sched := noSelfSchedule(rng, p)
	rec := NewRecorder(nullFabric{p: p})
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
	checkMemBytes(t, built)
	checkMemBytes(t, recorded)
	if got, want := encodeBytes(t, built), encodeBytes(t, recorded); !bytes.Equal(got, want) {
		t.Fatalf("built trace diverges from recorded trace (p=%d)\n built %+v", p, records(built))
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
