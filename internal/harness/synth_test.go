package harness

import (
	"bytes"
	"context"
	"errors"
	"flag"
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

// TestDiffTracesNamesFirstDivergence pins the oracle's failure text: the
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
			"synth oracle: record 2 diverges: synthesized {step 2: 2 -> 3, 9 elems}, recorded {step 2: 2 -> 3, 8 elems}"},
		{"endpoint", variant(1, func(r *fabric.Record) { r.To = 3 }),
			"synth oracle: record 1 diverges: synthesized {step 2: 1 -> 3, 4 elems}, recorded {step 2: 1 -> 2, 4 elems}"},
		{"step only", variant(1, func(r *fabric.Record) { r.Step = 1 }),
			"synth oracle: record 1 diverges: synthesized {step 1: 1 -> 2, 4 elems}, recorded {step 2: 1 -> 2, 4 elems}"},
		{"prefix", fabric.NewTrace(4, base[:2]),
			"synth oracle: encodings differ (2 synthesized records vs 3 recorded)"},
	} {
		err := diffTraces(tc.st, fabric.NewTrace(4, base))
		if got := fmt.Sprint(err); tc.want == "" && err != nil || tc.want != "" && got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

var lumiFull = flag.Bool("lumi-full", false, "TestSynthMatchesRecordedOracle walks all -full -systems lumi (p up to 1024) instead of quick all; seconds plain, about a minute under -race")

// TestSynthMatchesRecordedOracle is the synthesis equivalence gate: "all"
// runs on a default Engine and on one that records every schedule on the
// goroutine fabric (the oracle, which executes the same helpers with real
// data), both must resolve the same schedule set, and every schedule's two
// traces must encode to the same bytes — compared before the artifacts, so a
// drift names its schedule and first diverging record. It also owns the
// resolver counts of a fresh Engine: memory hits are the tripwire for a sweep
// compiled twice (hundreds more; the ones left are schedules that genuinely
// recur, at LUMI scale ppn's four algorithms at p = 64 and 256), resident
// bytes the one for repeated steps or bytes per record creeping back
// (fabric.Trace.MemBytes: 12 B a distinct record + 4 B a class- or
// step-index entry). No trace may have an empty step: a composite starts
// each phase where the one before it ends, so a gap means a phase's step
// count and the offset of the phase after it disagree.
func TestSynthMatchesRecordedOracle(t *testing.T) {
	t.Parallel()
	opts, schedules, memHits, residentBytes := Options{Quick: true}, 342, uint64(369), uint64(2_657_184)
	if *lumiFull {
		// The quick suite stops at p <= 128; rotated block-set offsets and
		// the Bine alltoall's per-step regrouping only go wrong above it.
		opts, schedules, memHits, residentBytes = Options{Systems: []string{"lumi"}}, 339, 8, 49_071_496
	}
	synth, oracle := &Engine{}, &Engine{DisableSynth: true}
	var rendered [2]strings.Builder
	for i, eng := range []*Engine{synth, oracle} {
		opts.Engine = eng
		if err := RunExperiment(context.Background(), &rendered[i], "all", opts); err != nil {
			t.Fatal(err)
		}
	}
	for key, se := range synth.traces {
		name := fmt.Sprintf("%s %s/%s shape=%s root=%d", key.Kind, key.Collective, key.Algo, key.Shape, key.Root)
		if oe := oracle.traces[key]; oe == nil {
			t.Errorf("%s: synthesized but never recorded", name)
		} else if err := diffTraces(se.tr, oe.tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for s := range se.tr.NumSteps() {
			if se.tr.StepClass(s) == 0 {
				t.Errorf("%s: step %d of %d is empty", name, s, se.tr.NumSteps())
				break
			}
		}
	}
	if len(synth.traces) != schedules || len(oracle.traces) != schedules {
		t.Errorf("%d schedules synthesized, %d recorded, want %d of each", len(synth.traces), len(oracle.traces), schedules)
	}
	if t.Failed() {
		return
	}
	if rendered[0].String() != rendered[1].String() {
		t.Error("identical traces rendered different artifacts")
	}
	s, o := synth.Stats(), oracle.Stats()
	if int(s.SynthHits) != schedules || s.Records != 0 || int(o.Records) != schedules || o.SynthHits != 0 {
		t.Errorf("want %d schedules resolved by each Engine's own cold leg:\nsynth  %+v\noracle %+v", schedules, s, o)
	}
	if s.MemoryHits != memHits || o.MemoryHits != memHits {
		t.Errorf("%d and %d memory hits, want %d", s.MemoryHits, o.MemoryHits, memHits)
	}
	if s.CachedBytes != residentBytes {
		t.Errorf("%d resident trace bytes, want %d", s.CachedBytes, residentBytes)
	}
}

// diffTraces holds synthesis to byte identity: the synthesized trace must
// encode to exactly the recorded oracle's bytes. On divergence it names the
// first differing record (the caller adds the schedule identity) so a
// schedule drift is debuggable from the failure message alone.
func diffTraces(st, rt *fabric.Trace) error {
	sb, err := encodeTraceBytes(st)
	if err != nil {
		return err
	}
	rb, err := encodeTraceBytes(rt)
	if err != nil {
		return err
	}
	if bytes.Equal(sb, rb) {
		return nil
	}
	srecs, rrecs := messages(st), messages(rt)
	for i := range min(len(srecs), len(rrecs)) {
		if srecs[i] != rrecs[i] {
			return fmt.Errorf("synth oracle: record %d diverges: synthesized %s, recorded %s",
				i, describeRecord(srecs[i]), describeRecord(rrecs[i]))
		}
	}
	return fmt.Errorf("synth oracle: encodings differ (%d synthesized records vs %d recorded)", len(srecs), len(rrecs))
}

// messages expands tr into its logical record sequence, step by step.
func messages(tr *fabric.Trace) []fabric.Record {
	out := make([]fabric.Record, 0, tr.Messages())
	for s := 0; s < tr.NumSteps(); s++ {
		for i, hi := tr.StepBounds(s); i < hi; i++ {
			out = append(out, fabric.Record{From: tr.From(i), To: tr.To(i), Step: s, Elems: tr.Elems(i)})
		}
	}
	return out
}

func describeRecord(r fabric.Record) string {
	return fmt.Sprintf("{step %d: %d -> %d, %d elems}", r.Step, r.From, r.To, r.Elems)
}

func encodeTraceBytes(tr *fabric.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := fabric.EncodeTrace(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
