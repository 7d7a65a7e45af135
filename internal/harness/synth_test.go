package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"binetrees/internal/fabric"
	"binetrees/internal/tracestore"
)

func synthKey(name string) tracestore.Key {
	return tracestore.Key{Kind: "test-synth", Algo: name, Shape: "4", SchedVersion: schedVersion}
}

func synthTestTrace(elems int) *fabric.Trace {
	return fabric.NewTrace(4, []fabric.Record{{From: 0, To: 1, Step: 0, Elems: elems}})
}

// TestResolverChainCounters walks one key through every stage of the
// resolver chain — synthesis, disk, a failing synthesis, synthesis disabled —
// and pins the counters and provenance stamps each stage must (and must not)
// produce. The counting is honest by the PR 5 rule: a stage that never
// served the trace never counts.
func TestResolverChainCounters(t *testing.T) {
	t.Parallel()
	st := openStore(t, t.TempDir())
	eng := &Engine{Store: st}
	tr := synthTestTrace(1)
	synthOK := func() (*fabric.Trace, error) { return tr, nil }
	mustNotRun := func(what string) func() (*fabric.Trace, error) {
		return func() (*fabric.Trace, error) {
			t.Fatalf("%s ran: resolver chain out of order", what)
			return nil, nil
		}
	}

	// Cold key with a working synthesizer: resolved without touching the
	// fabric, written through stamped synthesized.
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("a"), synthOK, mustNotRun("record")); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.SynthHits != 1 || s.Records != 0 || s.DiskSaves != 1 {
		t.Fatalf("synthesis resolution miscounted: %+v", s)
	}
	if o := st.Origin(synthKey("a")); o != tracestore.OriginSynthesized {
		t.Fatalf("synthesized trace stamped %q", o)
	}

	// A fresh Engine on the same store starts with a cold memory tier, so
	// the disk tier answers first: neither synthesis nor recording runs.
	eng = &Engine{Store: st}
	diskHits := eng.Stats().DiskHits
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("a"), mustNotRun("synthesize"), mustNotRun("record")); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.DiskHits != diskHits+1 || s.SynthHits != 0 || s.Records != 0 {
		t.Fatalf("disk resolution miscounted: %+v", s)
	}

	// A synth error fails the request — no second attempt on the fabric —
	// reaches neither the memory tier nor the store, and leaves the key
	// retryable.
	cannotWalk := errors.New("cannot walk")
	before := eng.Stats()
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("b"),
		func() (*fabric.Trace, error) { return nil, cannotWalk },
		mustNotRun("record")); !errors.Is(err, cannotWalk) {
		t.Fatalf("synth error surfaced as %v", err)
	}
	if s = eng.Stats(); s.SynthHits != 0 || s.Records != 0 || s.CachedTraces != before.CachedTraces || s.DiskSaves != before.DiskSaves {
		t.Fatalf("failed synthesis counted: %+v, before %+v", s, before)
	}
	if _, ok := st.Load(synthKey("b")); ok {
		t.Fatal("failed synthesis reached the store")
	}
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("b"), synthOK, mustNotRun("record")); err != nil {
		t.Fatalf("retry after a synth error: %v", err)
	}
	if s = eng.Stats(); s.SynthHits != 1 || s.CachedTraces != before.CachedTraces+1 {
		t.Fatalf("retried synthesis miscounted: %+v", s)
	}
	if o := st.Origin(synthKey("b")); o != tracestore.OriginSynthesized {
		t.Fatalf("retried synthesis stamped %q", o)
	}

	// Synthesis disabled: the synthesizer must not even be consulted.
	eng = &Engine{Store: st, DisableSynth: true}
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("c"), mustNotRun("synthesize"), synthOK); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.Records != 1 || s.SynthHits != 0 {
		t.Fatalf("disabled synthesis miscounted: %+v", s)
	}
	if o := st.Origin(synthKey("c")); o != tracestore.OriginRecorded {
		t.Fatalf("synth-disabled recording stamped %q", o)
	}
}

// TestVerifySynthMode pins verification mode: a synthesized trace that
// matches its fabric recording byte for byte resolves (counted verified), a
// diverging one fails the request naming the first differing record, is
// never cached or stored, and leaves the key retryable.
func TestVerifySynthMode(t *testing.T) {
	t.Parallel()
	st := openStore(t, t.TempDir())
	eng := &Engine{Store: st, VerifySynth: true}

	same := func() (*fabric.Trace, error) { return synthTestTrace(1), nil }
	other := func() (*fabric.Trace, error) { return synthTestTrace(2), nil }

	if _, err := eng.cachedTraceKey(context.Background(), synthKey("match"), same, same); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.SynthVerified != 1 || s.SynthHits != 1 || s.Records != 1 {
		t.Fatalf("verified resolution miscounted: %+v", s)
	}
	if o := st.Origin(synthKey("match")); o != tracestore.OriginSynthesized {
		t.Fatalf("verified trace stamped %q", o)
	}

	_, err := eng.cachedTraceKey(context.Background(), synthKey("diverge"), same, other)
	if err == nil || !strings.Contains(err.Error(), "record 0 diverges") {
		t.Fatalf("divergence not reported: %v", err)
	}
	s = eng.Stats()
	if s.SynthVerified != 1 || s.SynthHits != 1 {
		t.Fatalf("diverging synthesis counted as served: %+v", s)
	}
	if _, ok := st.Load(synthKey("diverge")); ok {
		t.Fatal("diverging trace reached the store")
	}
	// The failed key was evicted, not poisoned: a fixed synthesizer passes.
	if _, err := eng.cachedTraceKey(context.Background(), synthKey("diverge"), other, other); err != nil {
		t.Fatalf("retry after divergence: %v", err)
	}
	if s := eng.Stats(); s.SynthVerified != 2 {
		t.Fatalf("retry not verified: %+v", s)
	}
}

// TestDiffTracesNamesFirstDivergence pins the verify-synth failure text: the
// index, step, endpoints and size of the first record that differs on either
// side, and the record counts when one trace is a prefix of the other.
func TestDiffTracesNamesFirstDivergence(t *testing.T) {
	t.Parallel()
	base := []fabric.Record{
		{From: 0, To: 1, Step: 0, Elems: 4},
		{From: 1, To: 2, Step: 2, Elems: 4},
		{From: 2, To: 3, Step: 2, Elems: 8},
	}
	variant := func(i int, edit func(*fabric.Record)) *fabric.Trace {
		recs := append([]fabric.Record(nil), base...)
		edit(&recs[i])
		return fabric.NewTrace(4, recs)
	}
	for _, tc := range []struct {
		name string
		st   *fabric.Trace
		want string
	}{
		{"identical", fabric.NewTrace(4, base), ""},
		{"elems", variant(2, func(r *fabric.Record) { r.Elems = 9 }),
			"verify-synth: record 2 diverges: synthesized {step 2: 2 -> 3, 9 elems}, recorded {step 2: 2 -> 3, 8 elems}"},
		{"endpoint", variant(1, func(r *fabric.Record) { r.To = 3 }),
			"verify-synth: record 1 diverges: synthesized {step 2: 1 -> 3, 4 elems}, recorded {step 2: 1 -> 2, 4 elems}"},
		{"step only", variant(1, func(r *fabric.Record) { r.Step = 1 }),
			"verify-synth: record 1 diverges: synthesized {step 1: 1 -> 2, 4 elems}, recorded {step 2: 1 -> 2, 4 elems}"},
		{"prefix", fabric.NewTrace(4, base[:2]),
			"verify-synth: encodings differ (2 synthesized records vs 3 recorded)"},
	} {
		err := diffTraces(tc.st, fabric.NewTrace(4, base))
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
