package fabric

import (
	"fmt"
	"math"
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
// elems) — almost always already true of a rank's own send order — and the
// shards are counting-merged by step in rank order, which yields the fully
// sorted columns in O(records + steps) without comparing records across
// ranks. mergeShards takes ownership of the shards and frees each one as
// soon as it is merged.
func mergeShards(p int, shards []shardCols) *Trace {
	n, maxStep := 0, -1
	for s := range shards {
		sh := &shards[s]
		sh.sort()
		n += len(sh.step)
		if k := len(sh.step); k > 0 && int(sh.step[k-1]) > maxStep {
			maxStep = int(sh.step[k-1])
		}
	}
	// Counting merge: off[s+1] is the next free output slot for step s.
	// Walking shards in ascending rank order — each internally sorted by
	// (step, to, sub) — fills every step's region in (from, to, sub) order.
	// The cursors sit one slot above their step so that, once every region is
	// full, off[s] has advanced to the start of step s: the merge's scratch
	// array is the trace's step index, with one spare slot sliced off.
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
		*sh = shardCols{} // free the shard as soon as it's merged
	}
	return newTraceColumns(p, from, to, elems, off[:maxStep+2:maxStep+2])
}

// TraceBuilder captures a trace from schedule math alone: its Comm endpoints
// log every Send into per-sender columns and complete every Recv immediately
// (leaving the buffer untouched), so a schedule body driven against them —
// rank by rank, with no goroutines, mailboxes, payload copies or deadline
// machinery — emits exactly the (step, to, sub, elems) shard columns a
// Recorder-wrapped fabric run would capture. Trace merges the columns with
// the same shard sort and counting merge the Recorder uses, so the result is
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
