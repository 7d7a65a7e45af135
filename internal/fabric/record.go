package fabric

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Record is one captured point-to-point transfer in materialized form — the
// unit NewTrace builds test and tool traces from. The replay reads a Trace's
// columns through the per-field accessors instead.
type Record struct {
	From, To int
	// Step is the collective's logical step; messages sharing a step are
	// concurrent on the network.
	Step int
	// Elems is the payload length in vector elements.
	Elems int
}

// Trace is the complete communication record of one collective execution.
// The cost model in internal/netsim replays traces against topologies.
//
// A trace holds what the replay reads: three parallel int32 columns (from,
// to, elems — 12 bytes per record) grouped by ascending step, and a step
// index over them, so replay iterates steps without re-grouping. A record's
// step is its position in the index; the sub-message tag that orders records
// within a step exists only on the capture side (shardCols) and is dropped at
// the merge. A Trace is immutable after construction.
type Trace struct {
	P int

	// Parallel columns, grouped by step. Within a step, construction order is
	// preserved (mergeShards produces full (step, from, to, sub) order).
	cFrom, cTo, cElems []int32

	// stepOff[s] .. stepOff[s+1] bound step s's records in the columns;
	// len(stepOff) == NumSteps()+1.
	stepOff []int32

	totalElems int64
}

// NewTrace builds a trace over p ranks from materialized records (tests and
// tools; recordings come from Recorder.Trace and DecodeTraceBytes). Records
// are stably grouped by step if they aren't already; within-step order is
// preserved. Fields must be non-negative, fit in int32, and name ranks below
// p.
func NewTrace(p int, recs []Record) *Trace {
	// Only hand-built traces interleave steps. Stable so within-step order —
	// which the replay semantics preserve — stays exactly the construction
	// order.
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Step < recs[j].Step }) {
		recs = append([]Record(nil), recs...)
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Step < recs[j].Step })
	}
	n := len(recs)
	from, to, elems := makeColumns(n)
	for i, r := range recs {
		if r.Step < 0 || r.Step > math.MaxInt32 ||
			r.Elems < 0 || r.Elems > math.MaxInt32 || r.From < 0 || r.From >= p || r.To < 0 || r.To >= p {
			panic(fmt.Sprintf("fabric: trace record out of range: %+v (p=%d)", r, p))
		}
		from[i] = int32(r.From)
		to[i] = int32(r.To)
		elems[i] = int32(r.Elems)
	}
	numSteps := 0
	if n > 0 {
		numSteps = recs[n-1].Step + 1
	}
	stepOff := make([]int32, numSteps+1)
	for _, r := range recs {
		stepOff[r.Step+1]++
	}
	for s := 0; s < numSteps; s++ {
		stepOff[s+1] += stepOff[s]
	}
	return newTraceColumns(p, from, to, elems, stepOff)
}

// makeColumns carves one backing array into the three capped record columns
// every construction path (NewTrace, mergeShards, DecodeTraceBytes) fills.
func makeColumns(n int) (from, to, elems []int32) {
	cols := make([]int32, 3*n)
	return cols[:n:n], cols[n : 2*n : 2*n], cols[2*n : 3*n : 3*n]
}

// newTraceColumns assembles a trace from columns and a step index it takes
// ownership of. Callers guarantee non-negative elems, ranks below p and an
// index that starts at 0, never decreases and ends at the record count.
func newTraceColumns(p int, from, to, elems, stepOff []int32) *Trace {
	t := &Trace{P: p, cFrom: from, cTo: to, cElems: elems, stepOff: stepOff}
	for _, e := range elems {
		t.totalElems += int64(e)
	}
	return t
}

// NumRecords returns the record count.
func (t *Trace) NumRecords() int { return len(t.cFrom) }

// Per-record column accessors; i indexes the trace's step-grouped order.
// These are the replay hot path — they compile to bounds-checked loads.

// From returns record i's sending rank.
func (t *Trace) From(i int) int { return int(t.cFrom[i]) }

// To returns record i's receiving rank.
func (t *Trace) To(i int) int { return int(t.cTo[i]) }

// Elems returns record i's payload length in vector elements.
func (t *Trace) Elems(i int) int { return int(t.cElems[i]) }

// NumSteps returns the number of logical steps (the largest step + 1; steps
// with no messages count).
func (t *Trace) NumSteps() int { return len(t.stepOff) - 1 }

// StepBounds returns the half-open column range [lo, hi) of step s's
// records; lo == hi for an empty step.
func (t *Trace) StepBounds(s int) (lo, hi int) {
	return int(t.stepOff[s]), int(t.stepOff[s+1])
}

// MemBytes returns the resident size of the trace's columnar storage: three
// int32 columns plus the step index.
func (t *Trace) MemBytes() int64 {
	return 4 * int64(3*len(t.cFrom)+len(t.stepOff))
}

// TotalElems returns the total number of vector elements transferred
// (computed once at construction).
func (t *Trace) TotalElems() int64 { return t.totalElems }

// shard is one sender's private append-only record buffer: rank r's sends
// land in shard r in columnar form (From is implicit — it's the shard
// index), so concurrent ranks never contend on a shared mutex or interleave
// in a shared slice. The per-shard mutex is uncontended in normal use (a
// rank records from its own goroutine) and exists so misuse stays safe, and
// so Trace can snapshot mid-run. Padding keeps neighbouring shards off each
// other's cache lines.
type shard struct {
	mu                   sync.Mutex
	step, to, sub, elems []int32
	_                    [88]byte // rounds the struct to 192 bytes, a cache-line multiple
}

// Recorder wraps a fabric and captures every Send into a Trace. Receives are
// not recorded (each message appears once).
//
// Recording is sharded per sender: each rank appends to its own columnar
// buffer, so the hot path is a private (uncontended) lock and four int32
// appends — no cross-rank contention and half the bytes of the former
// single-slice []Record design. Trace merges the shards into deterministic
// (step, from, to, sub) order with a counting merge (no comparison sort of
// the full record set).
type Recorder struct {
	inner  Fabric
	shards []shard // one per sending rank
}

// NewRecorder wraps inner.
func NewRecorder(inner Fabric) *Recorder {
	return &Recorder{inner: inner, shards: make([]shard, inner.Size())}
}

// Size returns the rank count of the wrapped fabric.
func (r *Recorder) Size() int { return r.inner.Size() }

// Close closes the wrapped fabric.
func (r *Recorder) Close() error { return r.inner.Close() }

// Comm returns a recording endpoint for the rank.
func (r *Recorder) Comm(rank int) Comm {
	return &recComm{sh: &r.shards[rank], inner: r.inner.Comm(rank)}
}

// Trace returns the captured trace in deterministic (step, from, to, sub)
// order: each shard is snapshotted under its lock and the snapshots are
// handed to the shared shard merge (mergeShards) — the same sort and
// counting merge the TraceBuilder's synthesized columns go through.
func (r *Recorder) Trace() *Trace {
	p := r.inner.Size()
	snaps := make([]shardCols, p)
	for s := range r.shards {
		sh := &r.shards[s]
		sh.mu.Lock()
		snaps[s] = shardCols{
			step:  append([]int32(nil), sh.step...),
			to:    append([]int32(nil), sh.to...),
			sub:   append([]int32(nil), sh.sub...),
			elems: append([]int32(nil), sh.elems...),
		}
		sh.mu.Unlock()
	}
	return mergeShards(p, snaps)
}

// sort orders the shard's columns by (step, to, sub, elems) unless they
// already are — a rank's own send order almost always is, so the common case
// is a single verification pass.
func (c *shardCols) sort() {
	for i := 1; i < len(c.step); i++ {
		if c.Less(i, i-1) {
			sort.Sort(c)
			return
		}
	}
}

func (c *shardCols) Len() int { return len(c.step) }

// Less is the (step, to, sub, elems) record order within one sender's shard;
// elems is a final tiebreak so even pathological duplicate tags merge
// deterministically.
func (c *shardCols) Less(i, j int) bool {
	if c.step[i] != c.step[j] {
		return c.step[i] < c.step[j]
	}
	if c.to[i] != c.to[j] {
		return c.to[i] < c.to[j]
	}
	if c.sub[i] != c.sub[j] {
		return c.sub[i] < c.sub[j]
	}
	return c.elems[i] < c.elems[j]
}

func (c *shardCols) Swap(i, j int) {
	c.step[i], c.step[j] = c.step[j], c.step[i]
	c.to[i], c.to[j] = c.to[j], c.to[i]
	c.sub[i], c.sub[j] = c.sub[j], c.sub[i]
	c.elems[i], c.elems[j] = c.elems[j], c.elems[i]
}

type recComm struct {
	sh    *shard
	inner Comm
}

func (c *recComm) Rank() int { return c.inner.Rank() }
func (c *recComm) Size() int { return c.inner.Size() }

func (c *recComm) Send(to, step, sub int, data []int32) error {
	if step < 0 || step > math.MaxInt32 || sub < 0 || sub > math.MaxInt32 {
		return fmt.Errorf("fabric: record tag out of range (step=%d sub=%d)", step, sub)
	}
	sh := c.sh
	sh.mu.Lock()
	sh.step = append(sh.step, int32(step))
	sh.to = append(sh.to, int32(to))
	sh.sub = append(sh.sub, int32(sub))
	sh.elems = append(sh.elems, int32(len(data)))
	sh.mu.Unlock()
	return c.inner.Send(to, step, sub, data)
}

func (c *recComm) Recv(from, step, sub int, buf []int32) error {
	return c.inner.Recv(from, step, sub, buf)
}
