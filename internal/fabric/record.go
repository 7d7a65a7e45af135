package fabric

import (
	"fmt"
	"math"
	"slices"
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
// A trace is its distinct steps. The collectives' schedules repeat
// themselves — a ring sends one (from, to, elems) step body 2(p−1) times — so
// a trace stores each distinct step body once, as a class: three parallel
// int32 columns (from, to, elems — 12 bytes per stored record) hold the
// classes back to back, a class index bounds each class in them, and a step
// index names every step's class. Class 0 is the empty body; the others are
// numbered in order of first use. A record's step is the step whose class it
// was read through; the sub-message tag that orders records within a step
// exists only on the capture side (shardCols) and is dropped at the merge. A
// Trace is immutable after construction.
//
// Two record counts follow. NumRecords is the stored count — the range the
// column accessors From, To and Elems index. Messages is the logical count:
// every step's records, once per step, which is what a recording captured
// and what the replay charges.
type Trace struct {
	P int

	// Parallel columns of the distinct step bodies, class after class. Within
	// a class, construction order is preserved (mergeShards produces full
	// (from, to, sub) order).
	cFrom, cTo, cElems []int32

	// classOff[c] .. classOff[c+1] bound class c's records in the columns;
	// classOff[0] == classOff[1] == 0 (class 0 is the empty body).
	classOff []int32

	// stepClass[s] is step s's class; len(stepClass) == NumSteps().
	stepClass []int32

	messages   int
	totalElems int64
}

// NewTrace builds a trace over p ranks from materialized records (tests and
// tools; recordings come from Recorder.Trace and DecodeTraceBytes). Records
// are stably grouped by step if they aren't already; within-step order is
// preserved, and equal step bodies share one class (compactSteps). Fields
// must be non-negative, fit in int32, and name ranks below p.
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
	return compactSteps(p, from, to, elems, stepOff)
}

// makeColumns carves one backing array into the three capped record columns
// every construction path (compactSteps, mergeShards, DecodeTraceBytes)
// fills.
func makeColumns(n int) (from, to, elems []int32) {
	cols := make([]int32, 3*n)
	return cols[:n:n], cols[n : 2*n : 2*n], cols[2*n : 3*n : 3*n]
}

// newTrace assembles a trace from class columns, a class index and a step
// index it takes ownership of. Callers guarantee non-negative elems, ranks
// below p, a class index that starts 0, 0, never decreases and ends at the
// record count, and step classes inside it.
func newTrace(p int, from, to, elems, classOff, stepClass []int32) *Trace {
	t := &Trace{P: p, cFrom: from, cTo: to, cElems: elems, classOff: classOff, stepClass: stepClass}
	classElems := make([]int64, len(classOff)-1)
	for c := range classElems {
		for _, e := range elems[classOff[c]:classOff[c+1]] {
			classElems[c] += int64(e)
		}
	}
	for _, c := range stepClass {
		t.messages += int(classOff[c+1] - classOff[c])
		t.totalElems += classElems[c]
	}
	return t
}

// mixRecord folds one record into a step body's running hash, starting from
// 0, so the hash depends on the records' order. Different bodies can share a
// hash: every user compares the bodies before it lets two steps share a
// class.
func mixRecord(h uint64, from, to, elems int32) uint64 {
	h = (h ^ (uint64(uint32(from))<<32 | uint64(uint32(to)))) * 0x9e3779b97f4a7c15
	return (h ^ uint64(uint32(elems))) * 0xff51afd7ed558ccd
}

// classKey is what a step body's hash is looked up by when steps are sorted
// into classes. It is the identity; a package test swaps in a constant to
// make every pair of bodies collide.
var classKey = func(h uint64) uint64 { return h }

// compactSteps is the exact deduplication of materialized step-grouped
// columns (stepOff[s] .. stepOff[s+1] bound step s): a step whose body equals
// an earlier step's, record for record, gets that step's class — a shared
// hash only nominates candidates — and each class's body is kept once, in
// columns sized to the distinct records. It consumes its arguments.
func compactSteps(p int, from, to, elems, stepOff []int32) *Trace {
	numSteps := len(stepOff) - 1
	stepClass := make([]int32, numSteps)
	classOff := []int32{0, 0}
	byKey := map[uint64][]int32{}
	n := int32(0) // distinct records so far, compacted to the columns' front
	for s := 0; s < numSteps; s++ {
		lo, hi := stepOff[s], stepOff[s+1]
		if lo == hi {
			continue // class 0
		}
		h := uint64(0)
		for i := lo; i < hi; i++ {
			h = mixRecord(h, from[i], to[i], elems[i])
		}
		key := classKey(h)
		class := int32(-1)
		for _, c := range byKey[key] {
			clo, chi := classOff[c], classOff[c+1]
			if slices.Equal(from[clo:chi], from[lo:hi]) && slices.Equal(to[clo:chi], to[lo:hi]) &&
				slices.Equal(elems[clo:chi], elems[lo:hi]) {
				class = c
				break
			}
		}
		if class < 0 {
			// n <= lo, so the copy only overwrites steps already classified.
			copy(from[n:], from[lo:hi])
			copy(to[n:], to[lo:hi])
			copy(elems[n:], elems[lo:hi])
			n += hi - lo
			class = int32(len(classOff) - 1)
			classOff = append(classOff, n)
			byKey[key] = append(byKey[key], class)
		}
		stepClass[s] = class
	}
	cFrom, cTo, cElems := makeColumns(int(n))
	copy(cFrom, from)
	copy(cTo, to)
	copy(cElems, elems)
	return newTrace(p, cFrom, cTo, cElems, append(make([]int32, 0, len(classOff)), classOff...), stepClass)
}

// NumRecords returns the stored record count: the distinct step bodies'
// records, the range From, To and Elems index.
func (t *Trace) NumRecords() int { return len(t.cFrom) }

// Messages returns the logical record count: every step's records, counted
// once per step — what a recording of the schedule captured.
func (t *Trace) Messages() int { return t.messages }

// Per-record column accessors; i indexes the stored records, class by class
// (StepBounds maps a step to its class's range). These are the replay hot
// path — they compile to bounds-checked loads.

// From returns record i's sending rank.
func (t *Trace) From(i int) int { return int(t.cFrom[i]) }

// To returns record i's receiving rank.
func (t *Trace) To(i int) int { return int(t.cTo[i]) }

// Elems returns record i's payload length in vector elements.
func (t *Trace) Elems(i int) int { return int(t.cElems[i]) }

// NumSteps returns the number of logical steps (the largest step + 1; steps
// with no messages count).
func (t *Trace) NumSteps() int { return len(t.stepClass) }

// NumClasses returns the number of distinct step bodies, the empty class 0
// included.
func (t *Trace) NumClasses() int { return len(t.classOff) - 1 }

// StepClass returns step s's class, in [0, NumClasses()); steps of one class
// have equal bodies, and class 0 is the empty one.
func (t *Trace) StepClass(s int) int { return int(t.stepClass[s]) }

// StepBounds returns the half-open column range [lo, hi) of step s's
// records — its class's range, shared with every step of that class; lo ==
// hi for an empty step.
func (t *Trace) StepBounds(s int) (lo, hi int) {
	c := t.stepClass[s]
	return int(t.classOff[c]), int(t.classOff[c+1])
}

// MemBytes returns the resident size of the trace's columnar storage,
// exactly: three int32 columns of stored records, the class index
// (NumClasses()+1 entries) and the step index (NumSteps() entries), 4 bytes
// an entry.
func (t *Trace) MemBytes() int64 {
	return 4 * int64(3*len(t.cFrom)+len(t.classOff)+len(t.stepClass))
}

// TotalElems returns the total number of vector elements transferred over
// every step (computed once at construction).
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
// (step, from, to, sub) order without a comparison sort of the full record
// set, storing each distinct step body once (mergeShards).
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
// handed to the shared shard merge (mergeShards) — the same sort and merge
// the TraceBuilder's synthesized columns go through.
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
