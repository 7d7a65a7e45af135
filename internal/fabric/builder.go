package fabric

import (
	"fmt"
	"math"
	"slices"
)

// shardCols is one sender's captured (step, to, sub, elems) columns — the
// sending rank is implicit in the shard's index. Both trace producers fill
// them: the Recorder snapshots its per-rank shards into shardCols, and the
// TraceBuilder appends to them directly; mergeShards turns either into the
// final Trace. sub lives only here: it is the sort key that fixes the order
// of a pair's messages within a step, and no consumer of a Trace reads it.
type shardCols struct {
	step, to, sub, elems []int32
}

// mergeShards assembles the deterministic (step, from, to, sub)-ordered
// trace from per-sender columns. Each shard is sorted by (step, to, sub,
// elems) — almost always already true of a rank's own send order — and
// walking the shards in rank order then visits every step's records in
// (from, to, sub) order without comparing records across ranks.
//
// The copies of a repeated step are never written. Pass 1 hashes every
// step's body in that merge order and gives each step the class of the first
// step with its hash and record count. Pass 2 writes each class's first step
// and checks every other step of the class record by record against it. A
// check that fails is a hash collision: the trace is rebuilt by the exact
// dedup (compactSteps over the materialized merge), so two different bodies
// never share a class.
func mergeShards(p int, shards []shardCols) *Trace {
	maxStep := -1
	for s := range shards {
		sh := &shards[s]
		sh.sort()
		if k := len(sh.step); k > 0 && int(sh.step[k-1]) > maxStep {
			maxStep = int(sh.step[k-1])
		}
	}
	numSteps := maxStep + 1
	count := make([]int32, numSteps)
	hash := make([]uint64, numSteps)
	for r := range shards {
		sh := &shards[r]
		for i, st := range sh.step {
			count[st]++
			hash[st] = mixRecord(hash[st], int32(r), sh.to[i], sh.elems[i])
		}
	}
	stepClass := make([]int32, numSteps)
	classOff := []int32{0, 0}
	first := []int32{-1} // each class's first step, the one pass 2 writes
	byKey := map[uint64]int32{}
	for s := range numSteps {
		if count[s] == 0 {
			continue // class 0
		}
		key := classKey(hash[s])
		c, ok := byKey[key]
		if !ok {
			c = int32(len(classOff) - 1)
			byKey[key] = c
			classOff = append(classOff, classOff[c]+count[s])
			first = append(first, int32(s))
		} else if classOff[c+1]-classOff[c] != count[s] {
			return exactMerge(p, shards)
		}
		stepClass[s] = c
	}
	from, to, elems := makeColumns(int(classOff[len(classOff)-1]))
	// No rank is negative, so a slot its class's first step has not written
	// yet fails every check against it.
	for i := range from {
		from[i] = -1
	}
	clear(count) // reused as each step's write/check cursor
	for r := range shards {
		sh := &shards[r]
		for i, st := range sh.step {
			c := stepClass[st]
			slot := classOff[c] + count[st]
			count[st]++
			if first[c] == st {
				from[slot], to[slot], elems[slot] = int32(r), sh.to[i], sh.elems[i]
			} else if from[slot] != int32(r) || to[slot] != sh.to[i] || elems[slot] != sh.elems[i] {
				return exactMerge(p, shards)
			}
		}
	}
	return newTrace(p, from, to, elems, append(make([]int32, 0, len(classOff)), classOff...), stepClass)
}

// exactMerge is mergeShards without the hash: the counting merge of sorted
// shards into full step-grouped columns — every copy of every step written
// out — deduplicated by compactSteps.
func exactMerge(p int, shards []shardCols) *Trace {
	n, maxStep := 0, -1
	for s := range shards {
		sh := &shards[s]
		n += len(sh.step)
		if k := len(sh.step); k > 0 && int(sh.step[k-1]) > maxStep {
			maxStep = int(sh.step[k-1])
		}
	}
	// off[s+1] is the next free output slot for step s. The cursors sit one
	// slot above their step so that, once every region is full, off[s] has
	// advanced to the start of step s: the merge's scratch array is the step
	// index, with one spare slot sliced off.
	off := make([]int32, maxStep+3)
	for s := range shards {
		for _, st := range shards[s].step {
			off[st+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	from, to, elems := makeColumns(n)
	for s := range shards {
		sh := &shards[s]
		for i, st := range sh.step {
			pos := off[st+1]
			off[st+1]++
			from[pos] = int32(s)
			to[pos] = sh.to[i]
			elems[pos] = sh.elems[i]
		}
	}
	return compactSteps(p, from, to, elems, off[:maxStep+2])
}

// TraceBuilder captures a trace from schedule math alone: its Comm endpoints
// log every Send into per-sender columns and complete every Recv immediately
// (leaving the buffer untouched), so a schedule body driven against them —
// rank by rank, with no goroutines, mailboxes, payload copies or deadline
// machinery — emits exactly the (step, to, sub, elems) shard columns a
// Recorder-wrapped fabric run would capture. Trace merges the columns with
// the same shard sort and merge the Recorder uses, so the result is
// byte-identical under the codec to a recording of the same schedule.
//
// Ranks are driven one at a time, in any order: an endpoint writes only its
// own shard, but Comm sizes a fresh shard from its predecessor's length, so
// the builder is not safe for concurrent use.
type TraceBuilder struct {
	p      int
	shards []shardCols
}

// NewTraceBuilder returns a builder over p ranks.
func NewTraceBuilder(p int) *TraceBuilder {
	return &TraceBuilder{p: p, shards: make([]shardCols, p)}
}

// Size returns the rank count.
func (b *TraceBuilder) Size() int { return b.p }

// Comm returns the pattern-only endpoint for the rank. The ranks of one
// schedule send near-equal message counts, so a rank's still-empty shard is
// carved out of one allocation sized by the previous rank's record count; a
// rank that sends more falls back to append growth per column.
func (b *TraceBuilder) Comm(rank int) Comm {
	if sh := &b.shards[rank]; rank > 0 && sh.step == nil {
		if n := len(b.shards[rank-1].step); n > 0 {
			buf := make([]int32, 4*n)
			sh.step, sh.to = buf[0:0:n], buf[n:n:2*n]
			sh.sub, sh.elems = buf[2*n:2*n:3*n], buf[3*n:3*n:4*n]
		}
	}
	return &patternComm{b: b, rank: rank}
}

// Trace merges the captured columns into the deterministic (step, from, to,
// sub) order, consuming them: the builder is reset for reuse.
func (b *TraceBuilder) Trace() *Trace {
	shards := b.shards
	b.shards = make([]shardCols, b.p)
	return mergeShards(b.p, shards)
}

// patternComm is the TraceBuilder's endpoint. Send applies the same
// validation the recording stack enforces — tag ranges from the Recorder,
// destination range and self-send rejection from the in-process transport —
// so a schedule bug fails synthesis exactly as it would fail a recording
// run; Recv completes immediately, leaving buf as-is (schedules are
// data-independent, and recordings run on all-zero vectors anyway).
type patternComm struct {
	b    *TraceBuilder
	rank int
}

func (c *patternComm) Rank() int { return c.rank }
func (c *patternComm) Size() int { return c.b.p }

func (c *patternComm) Send(to, step, sub int, data []int32) error {
	if step < 0 || step > math.MaxInt32 || sub < 0 || sub > math.MaxInt32 {
		return fmt.Errorf("fabric: record tag out of range (step=%d sub=%d)", step, sub)
	}
	if to < 0 || to >= c.b.p {
		return fmt.Errorf("fabric: send to rank %d of %d", to, c.b.p)
	}
	if to == c.rank {
		return fmt.Errorf("fabric: rank %d sending to itself", to)
	}
	sh := &c.b.shards[c.rank]
	sh.step = append(sh.step, int32(step))
	sh.to = append(sh.to, int32(to))
	sh.sub = append(sh.sub, int32(sub))
	sh.elems = append(sh.elems, int32(len(data)))
	return nil
}

func (c *patternComm) Recv(from, step, sub int, buf []int32) error {
	if from < 0 || from >= c.b.p {
		return fmt.Errorf("fabric: recv from rank %d of %d", from, c.b.p)
	}
	if from == c.rank {
		return fmt.Errorf("fabric: rank %d receiving from itself", from)
	}
	return nil
}

// StepBuilder builds a trace in step order from a schedule's plan: the
// caller hands it every record of step 0, rank by rank in (from, to, sub)
// order — the order mergeShards leaves a step in — then closes the step,
// then step 1, and so on. A closed step is filed under the first earlier
// class whose body equals it record by record, or else kept as a new class,
// so each distinct body is written once, straight into the class columns:
// there are no per-rank shards, no sort and no merge. Empty steps take class
// 0 and trailing ones are dropped, as in mergeShards, so a schedule's
// StepBuilder trace is byte-identical under the codec to its TraceBuilder
// trace. Send applies patternComm's checks with its error texts, and Trace
// finishes through NewClassTrace's validation.
type StepBuilder struct {
	p                   int
	from, to, elems     []int32 // class columns; the open step's records follow the last class
	classOff, stepClass []int32
	// byHash holds the last class with a body hash, and sameHash[c] the
	// class before c with c's hash, 0 ending the chain.
	byHash   map[uint64]int32
	sameHash []int32
	hash     uint64 // the open step's running body hash
	steps    int    // steps up to the last non-empty one
}

// NewStepBuilder returns a builder over p ranks whose columns and step index
// are sized for steps steps of at most records distinct records in all.
func NewStepBuilder(p, steps, records int) *StepBuilder {
	cols := make([]int32, 3*records)
	return &StepBuilder{
		p:    p,
		from: cols[:0:records], to: cols[records : records : 2*records], elems: cols[2*records : 2*records : 3*records],
		classOff:  []int32{0, 0},
		stepClass: make([]int32, 0, steps),
		byHash:    map[uint64]int32{},
		sameHash:  []int32{0},
	}
}

// Send adds one record to the open step: from sends elems elements to to
// under sub-tag sub.
func (b *StepBuilder) Send(from, to, sub, elems int) error {
	if step := len(b.stepClass); step > math.MaxInt32 || sub < 0 || sub > math.MaxInt32 {
		return fmt.Errorf("fabric: record tag out of range (step=%d sub=%d)", step, sub)
	}
	if to < 0 || to >= b.p {
		return fmt.Errorf("fabric: send to rank %d of %d", to, b.p)
	}
	if to == from {
		return fmt.Errorf("fabric: rank %d sending to itself", to)
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
	b.elems = append(b.elems, int32(elems))
	b.hash = mixRecord(b.hash, int32(from), int32(to), int32(elems))
	return nil
}

// EndStep closes the open step.
func (b *StepBuilder) EndStep() {
	lo, hi := b.classOff[len(b.classOff)-1], int32(len(b.from))
	h := b.hash
	b.hash = 0
	if lo == hi {
		b.stepClass = append(b.stepClass, 0)
		return
	}
	// At most one earlier class can equal the step: equal classes would
	// have been one.
	key := classKey(h)
	for c := b.byHash[key]; c != 0; c = b.sameHash[c] {
		clo, chi := b.classOff[c], b.classOff[c+1]
		if slices.Equal(b.from[clo:chi], b.from[lo:hi]) && slices.Equal(b.to[clo:chi], b.to[lo:hi]) &&
			slices.Equal(b.elems[clo:chi], b.elems[lo:hi]) {
			b.from, b.to, b.elems = b.from[:lo], b.to[:lo], b.elems[:lo]
			b.closeStep(c)
			return
		}
	}
	c := int32(len(b.classOff) - 1)
	b.classOff = append(b.classOff, hi)
	b.sameHash = append(b.sameHash, b.byHash[key])
	b.byHash[key] = c
	b.closeStep(c)
}

// Repeat closes the open step, which must have no records, as a copy of
// earlier step s: for a plan that knows two steps send the same body, so the
// copy is neither built nor compared.
func (b *StepBuilder) Repeat(s int) {
	b.closeStep(b.stepClass[s])
}

func (b *StepBuilder) closeStep(c int32) {
	b.stepClass = append(b.stepClass, c)
	if c != 0 {
		b.steps = len(b.stepClass)
	}
}

// Trace returns the built trace, or NewClassTrace's error. Columns and
// indexes sized past what the trace holds are copied down to it, so the
// trace holds no spare capacity. The builder must not be used afterwards.
func (b *StepBuilder) Trace() (*Trace, error) {
	from, to, elems := b.from, b.to, b.elems
	if n := len(from); n < cap(from) {
		from, to, elems = makeColumns(n)
		copy(from, b.from)
		copy(to, b.to)
		copy(elems, b.elems)
	}
	stepClass := b.stepClass[:b.steps]
	if b.steps < cap(b.stepClass) {
		stepClass = append(make([]int32, 0, b.steps), stepClass...)
	}
	classOff := append(make([]int32, 0, len(b.classOff)), b.classOff...)
	return NewClassTrace(b.p, from, to, elems, classOff, stepClass)
}
