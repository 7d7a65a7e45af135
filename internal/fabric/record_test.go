package fabric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// records materializes tr's logical record sequence, step by step through
// StepBounds.
func records(tr *Trace) []Record {
	out := make([]Record, 0, tr.Messages())
	for s := 0; s < tr.NumSteps(); s++ {
		for i, hi := tr.StepBounds(s); i < hi; i++ {
			out = append(out, Record{From: tr.From(i), To: tr.To(i), Step: s, Elems: tr.Elems(i)})
		}
	}
	return out
}

// sendRec is one scheduled send: a Record plus the sub-message tag, which
// the capture side sorts on and a Trace does not keep.
type sendRec struct {
	Record
	Sub int
}

// checkLayout pins that MemBytes is exact — 12 bytes per stored record
// plus the class and step indexes, with no capacity beyond the lengths it
// counts — and the layout's invariants: class 0 is the empty body, every
// other class holds records and is first used in class order, and the
// logical counts are the per-step sums.
func checkLayout(t *testing.T, tr *Trace) {
	t.Helper()
	n, k, steps := tr.NumRecords(), tr.NumClasses(), tr.NumSteps()
	if got, want := tr.MemBytes(), 4*int64(3*n+k+1+steps); got != want {
		t.Fatalf("MemBytes() = %d, want 4·(3·%d + %d + %d) = %d", got, n, k+1, steps, want)
	}
	if cap(tr.cFrom) != n || cap(tr.cTo) != n || cap(tr.cElems) != n || cap(tr.classOff) != k+1 || cap(tr.stepClass) != steps {
		t.Fatalf("trace holds capacity MemBytes does not count: columns %d/%d/%d for %d records, indexes %d/%d for %d classes, %d steps",
			cap(tr.cFrom), cap(tr.cTo), cap(tr.cElems), n, cap(tr.classOff), cap(tr.stepClass), k, steps)
	}
	if tr.classOff[0] != 0 || tr.classOff[1] != 0 || int(tr.classOff[k]) != n {
		t.Fatalf("class index %v does not start 0, 0 and end at %d records", tr.classOff, n)
	}
	used, messages, elems := 0, 0, int64(0)
	for s := 0; s < steps; s++ {
		c := tr.StepClass(s)
		if c > used+1 {
			t.Fatalf("step %d uses class %d before class %d", s, c, used+1)
		}
		used = max(used, c)
		lo, hi := tr.StepBounds(s)
		if (lo == hi) != (c == 0) {
			t.Fatalf("step %d: class %d holds %d records", s, c, hi-lo)
		}
		for i := lo; i < hi; i++ {
			elems += int64(tr.Elems(i))
		}
		messages += hi - lo
	}
	if used != k-1 || messages != tr.Messages() || elems != tr.TotalElems() {
		t.Fatalf("steps use %d of %d classes and sum to %d messages, %d elems; trace says %d, %d",
			used, k-1, messages, elems, tr.Messages(), tr.TotalElems())
	}
}

// nullFabric is a transport that accepts every send and never delivers:
// recorder tests and benchmarks exercise the recording hot path without
// paying for mailboxes or goroutine scheduling.
type nullFabric struct{ p int }

func (f nullFabric) Size() int          { return f.p }
func (f nullFabric) Comm(rank int) Comm { return nullComm{rank: rank, p: f.p} }
func (f nullFabric) Close() error       { return nil }

type nullComm struct{ rank, p int }

func (c nullComm) Rank() int                                  { return c.rank }
func (c nullComm) Size() int                                  { return c.p }
func (c nullComm) Send(to, step, sub int, data []int32) error { return nil }
func (c nullComm) Recv(from, step, sub int, buf []int32) error {
	return fmt.Errorf("nullComm: no messages")
}

// referenceRecorder is the pre-columnar Recorder: one mutex, one append-only
// []sendRec, sorted at Trace time. It is the property-test oracle the sharded
// merge must match, and the baseline the recording benchmarks compare
// against.
type referenceRecorder struct {
	inner Fabric
	mu    sync.Mutex
	recs  []sendRec
}

func newReferenceRecorder(inner Fabric) *referenceRecorder {
	return &referenceRecorder{inner: inner}
}

func (r *referenceRecorder) Size() int    { return r.inner.Size() }
func (r *referenceRecorder) Close() error { return r.inner.Close() }
func (r *referenceRecorder) Comm(rank int) Comm {
	return &refComm{rec: r, inner: r.inner.Comm(rank)}
}

// Trace returns the captured records sorted by (step, from, to, sub, elems)
// — the old implementation's deterministic order, with the elems tiebreak
// the sharded merge guarantees for pathological duplicate tags.
func (r *referenceRecorder) Trace() []sendRec {
	r.mu.Lock()
	recs := append([]sendRec(nil), r.recs...)
	r.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.Sub != b.Sub {
			return a.Sub < b.Sub
		}
		return a.Elems < b.Elems
	})
	return recs
}

type refComm struct {
	rec   *referenceRecorder
	inner Comm
}

func (c *refComm) Rank() int { return c.inner.Rank() }
func (c *refComm) Size() int { return c.inner.Size() }

func (c *refComm) Send(to, step, sub int, data []int32) error {
	c.rec.mu.Lock()
	c.rec.recs = append(c.rec.recs, sendRec{
		Record: Record{From: c.inner.Rank(), To: to, Step: step, Elems: len(data)},
		Sub:    sub,
	})
	c.rec.mu.Unlock()
	return c.inner.Send(to, step, sub, data)
}

func (c *refComm) Recv(from, step, sub int, buf []int32) error {
	return c.inner.Recv(from, step, sub, buf)
}

// randomSchedule builds per-rank send lists with clustered steps, repeated
// (to, sub) pairs, occasional exact duplicates and, in half the schedules,
// whole steps repeated later — every rank's sends of an earlier step copied
// to a new step, copies of different steps interleaved and sometimes apart —
// the shapes that stress the shard sort, the merge and its step classes.
func randomSchedule(rng *rand.Rand, p int) [][]sendRec {
	sched := make([][]sendRec, p)
	for r := 0; r < p; r++ {
		m := rng.Intn(60)
		step := 0
		for i := 0; i < m; i++ {
			switch rng.Intn(4) {
			case 0:
				step += rng.Intn(3) // mostly nondecreasing, like real ranks
			case 1:
				if step > 0 {
					step -= 1 // occasional out-of-order step (stresses the sort)
				}
			}
			to, sub, elems := rng.Intn(p), rng.Intn(3), rng.Intn(5)
			rec := sendRec{Record{From: r, To: to, Step: step, Elems: elems}, sub}
			sched[r] = append(sched[r], rec)
			if rng.Intn(8) == 0 {
				sched[r] = append(sched[r], rec) // exact duplicate
			}
		}
	}
	if rng.Intn(2) == 0 {
		repeatSteps(rng, sched)
	}
	return sched
}

// repeatSteps appends copies of whole steps past the schedule's last step:
// each copy takes every rank's sends of a randomly chosen earlier step.
func repeatSteps(rng *rand.Rand, sched [][]sendRec) {
	last := 0
	for _, sends := range sched {
		for _, m := range sends {
			last = max(last, m.Step)
		}
	}
	dst := last
	for k := 1 + rng.Intn(6); k > 0; k-- {
		src := rng.Intn(last + 1)
		dst += 1 + rng.Intn(2) // sometimes leaving an empty step between copies
		for r, sends := range sched {
			for _, m := range sends {
				if m.Step == src {
					m.Step = dst
					sched[r] = append(sched[r], m)
				}
			}
		}
	}
}

// runSchedule drives every rank's send list concurrently through the
// recorder chain and returns when all sends completed. Each rank reuses one
// payload buffer, so benchmarks measure the recording path rather than
// payload construction.
func runSchedule(f Fabric, sched [][]sendRec) {
	var wg sync.WaitGroup
	for r := range sched {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := f.Comm(rank)
			maxElems := 0
			for _, m := range sched[rank] {
				if m.Elems > maxElems {
					maxElems = m.Elems
				}
			}
			payload := make([]int32, maxElems)
			for _, m := range sched[rank] {
				if err := c.Send(m.To, m.Step, m.Sub, payload[:m.Elems]); err != nil {
					panic(err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// checkShardedMatchesReference records one randomized concurrent schedule
// through both recorders at once (the sharded Recorder wraps the reference,
// so both observe the identical set of sends) and requires the sharded
// merge's logical sequence, expanded through StepBounds, to equal the
// single-mutex oracle's sorted order — and its classes to be exactly the
// ones NewTrace's exact dedup finds in that order.
func checkShardedMatchesReference(t *testing.T, rng *rand.Rand) {
	t.Helper()
	p := 2 + rng.Intn(9)
	sched := randomSchedule(rng, p)
	ref := newReferenceRecorder(nullFabric{p: p})
	rec := NewRecorder(ref)
	done := make(chan struct{})
	// Concurrent mid-run snapshots must not perturb the final trace.
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			_ = rec.Trace()
		}
	}()
	runSchedule(rec, sched)
	<-done
	got := rec.Trace()
	want := []Record{} // the reference order, less the tag a Trace does not keep
	for _, m := range ref.Trace() {
		want = append(want, m.Record)
	}
	if got.P != p {
		t.Fatalf("trace P = %d, want %d", got.P, p)
	}
	checkLayout(t, got)
	if !reflect.DeepEqual(records(got), want) {
		t.Fatalf("sharded merge diverged from single-mutex order\n got %+v\nwant %+v", records(got), want)
	}
	if !reflect.DeepEqual(got, NewTrace(p, want)) {
		t.Fatalf("sharded merge's step classes differ from the exact dedup's (p=%d)", p)
	}
}

// TestShardedRecorderMatchesReference is the merge-order property test: for
// randomized concurrent send interleavings, the sharded recorder's merged
// (step, from, to, sub) order equals the old single-mutex recorder's sorted
// order.
func TestShardedRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		checkShardedMatchesReference(t, rng)
	}
}

// FuzzShardedRecorderMerge fuzzes the same property over arbitrary seeds
// (the seed corpus runs under plain `go test`; `go test -fuzz` explores).
func FuzzShardedRecorderMerge(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkShardedMatchesReference(t, rand.New(rand.NewSource(seed)))
	})
}

// ringSchedule is the fig11b hot spot in miniature: every rank sends
// 2(p−1) unit messages, one per step, to its ring neighbour.
func ringSchedule(p int) [][]sendRec {
	sched := make([][]sendRec, p)
	for r := 0; r < p; r++ {
		next := (r + 1) % p
		steps := 2 * (p - 1)
		sched[r] = make([]sendRec, steps)
		for s := 0; s < steps; s++ {
			sched[r][s].Record = Record{From: r, To: next, Step: s, Elems: 1}
		}
	}
	return sched
}

// BenchmarkRecordRing measures cold recording of a p-rank ring allreduce
// schedule (every rank sends 2(p−1) unit messages) plus the Trace merge —
// the recording hot path of `fig11b -full` at reduced scale — for the
// sharded columnar recorder and the old single-mutex []Record baseline.
func BenchmarkRecordRing(b *testing.B) {
	const p = 1024
	sched := ringSchedule(p)
	msgs := int64(p * 2 * (p - 1))
	b.Run("sharded", func(b *testing.B) {
		b.SetBytes(msgs)
		for i := 0; i < b.N; i++ {
			rec := NewRecorder(nullFabric{p: p})
			runSchedule(rec, sched)
			if tr := rec.Trace(); tr.Messages() != int(msgs) {
				b.Fatalf("recorded %d messages, want %d", tr.Messages(), msgs)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(msgs)
		for i := 0; i < b.N; i++ {
			rec := newReferenceRecorder(nullFabric{p: p})
			runSchedule(rec, sched)
			if recs := rec.Trace(); len(recs) != int(msgs) {
				b.Fatalf("recorded %d messages, want %d", len(recs), msgs)
			}
		}
	})
}
