// Span/trace layer: one Trace per served request (or per flight render)
// accumulates a timeline of serial spans (compile → execute → render) plus
// parallel per-cell stage aggregates (synth, store-load, evaluate, …) fed
// by however many pool workers drained the request's cells. Every span and
// stage observation also lands in the Default registry's stage histogram,
// so the global /metrics view and the per-request /tracez view share one
// vocabulary by construction.

package obs

import (
	"context"
	"sync"
	"time"
)

// Stage is one name of the stage vocabulary: every timed unit of pipeline
// work reports under one, in the Default registry's binebench_stage_seconds
// histogram and in per-request trace timelines. The field is unexported, so
// the Stage* values below are the only named stages any other package can
// hold — a series the CI scrape gate does not know cannot be minted from a
// string.
type Stage struct{ name string }

// String returns the stage's label value and timeline name.
func (s Stage) String() string { return s.name }

var (
	// StageCompile is plan compilation: experiment spec → flat cell list.
	StageCompile = Stage{"compile"}
	// StageExecute is the drain of a plan's cells on the worker pool.
	StageExecute = Stage{"execute"}
	// StageRender is the serial artifact render from completed cell slots.
	StageRender = Stage{"render"}
	// StageServe is a whole HTTP request, first byte of parsing to last
	// byte streamed.
	StageServe = Stage{"serve"}
	// StageCacheLookup is a trace resolution served by the in-process
	// memory tier (including time spent waiting on a concurrent resolver).
	StageCacheLookup = Stage{"cache-lookup"}
	// StageStoreLoad is a disk trace-store lookup (hit or miss).
	StageStoreLoad = Stage{"store-load"}
	// StageSynth is direct schedule synthesis from schedule math.
	StageSynth = Stage{"synth"}
	// StageRecord is a schedule execution on the recording goroutine
	// fabric (the -synth=false leg, which is the synthesizer's oracle).
	StageRecord = Stage{"fabric-record"}
	// StageStoreSave is the disk trace store's write of a cold resolution:
	// encode, write and rename of the trace and its origin sidecar.
	StageStoreSave = Stage{"store-save"}
	// StageEvaluate is a netsim evaluation of a resolved trace.
	StageEvaluate = Stage{"evaluate"}
)

// Stages lists the full stage vocabulary in pipeline order.
func Stages() []Stage {
	return []Stage{
		StageCompile, StageExecute, StageRender, StageServe,
		StageCacheLookup, StageStoreLoad, StageSynth, StageRecord, StageStoreSave, StageEvaluate,
	}
}

// Origin is one name of the resolver-origin vocabulary: the tier that
// ultimately served a schedule's trace, labeling binebench_resolve_seconds /
// _total. Opaque like Stage: the Origin* values are the only instances.
type Origin struct{ name string }

// String returns the origin's label value.
func (o Origin) String() string { return o.name }

var (
	// OriginMemory is the in-process cache tier (including waits on a
	// concurrent resolver of the same key).
	OriginMemory = Origin{"memory"}
	// OriginStore is the disk trace store.
	OriginStore = Origin{"store"}
	// OriginSynth is direct synthesis from schedule math.
	OriginSynth = Origin{"synth"}
	// OriginRecord is an execution on the recording goroutine fabric.
	OriginRecord = Origin{"record"}
)

// Origins lists the resolver-origin vocabulary in lookup order.
func Origins() []Origin { return []Origin{OriginMemory, OriginStore, OriginSynth, OriginRecord} }

// stageHists and resolveHists pre-register the full vocabulary into Default
// so /metrics always exposes every series (at zero) and hot-path lookups
// are a read of an init-built map that is never mutated afterwards.
var (
	stageHists    = map[Stage]*Histogram{}
	resolveHists  = map[Origin]*Histogram{}
	resolveCounts = map[Origin]*Counter{}
)

func init() {
	for _, s := range Stages() {
		stageHists[s] = Default.Histogram("binebench_stage_seconds",
			"Latency of pipeline stages, by stage.", nil, "stage", s.name)
	}
	for _, o := range Origins() {
		resolveHists[o] = Default.Histogram("binebench_resolve_seconds",
			"Trace resolution latency, by the tier that served it.", nil, "origin", o.name)
		resolveCounts[o] = Default.Counter("binebench_resolves_total",
			"Trace resolutions, by the tier that served them.", "origin", o.name)
	}
}

// ObserveStage records one stage duration into the global stage histogram.
func ObserveStage(stage Stage, d time.Duration) { stageHists[stage].Observe(d.Seconds()) }

// ObserveResolve records one trace resolution into the per-origin resolver
// metrics and, when ctx carries a Trace, into its stage aggregates under
// "resolve:<origin>".
func ObserveResolve(ctx context.Context, origin Origin, d time.Duration) {
	resolveHists[origin].Observe(d.Seconds())
	resolveCounts[origin].Inc()
	if t := TraceOf(ctx); t != nil {
		t.addStage("resolve:"+origin.name, d)
	}
}

type ctxKey int

const (
	traceKey ctxKey = iota
	depthKey
)

// WithTrace attaches a request trace to the context; every StartSpan and
// TimeStage under it reports into the trace's timeline.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceOf returns the context's trace, or nil.
func TraceOf(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// StartSpan opens a named serial span: the returned context parents any
// nested spans one level deeper, and the returned func closes the span,
// reporting its duration to the global stage histogram and — when a trace
// is attached — to the trace's timeline. Without a trace only the
// histogram observation happens. Use for the serial skeleton of a request
// (compile, execute, render); parallel per-cell work uses TimeStage.
func StartSpan(ctx context.Context, stage Stage) (context.Context, func()) {
	t0 := time.Now()
	tr := TraceOf(ctx)
	if tr == nil {
		return ctx, func() { ObserveStage(stage, time.Since(t0)) }
	}
	depth, _ := ctx.Value(depthKey).(int)
	idx := tr.openSpan(stage.name, t0, depth)
	ctx = context.WithValue(ctx, depthKey, depth+1)
	return ctx, func() {
		d := time.Since(t0)
		tr.closeSpan(idx, d)
		ObserveStage(stage, d)
	}
}

// TimeStage times one unit of (possibly parallel) cell work: the returned
// func records the elapsed duration into the global stage histogram and
// into the context trace's per-stage aggregates. Cells use this instead of
// StartSpan so a thousand-cell request aggregates rather than growing a
// thousand-span timeline.
func TimeStage(ctx context.Context, stage Stage) func() {
	t0 := time.Now()
	tr := TraceOf(ctx)
	return func() {
		d := time.Since(t0)
		ObserveStage(stage, d)
		if tr != nil {
			tr.addStage(stage.name, d)
		}
	}
}

// ObserveStageCtx records an already-measured stage duration into both the
// global histogram and the context trace — the non-closure form of
// TimeStage for call sites that measured the interval themselves.
func ObserveStageCtx(ctx context.Context, stage Stage, d time.Duration) {
	ObserveStage(stage, d)
	if tr := TraceOf(ctx); tr != nil {
		tr.addStage(stage.name, d)
	}
}

type spanRec struct {
	name  string
	start time.Duration // offset from trace start
	dur   time.Duration // -1 while open
	depth int
}

type stageAgg struct {
	count uint64
	ns    int64
}

// Trace is one request's (or one flight render's) timeline: an ID, serial
// spans, and parallel stage aggregates. Safe for concurrent use — cells on
// many pool workers feed one trace.
type Trace struct {
	id    string
	name  string
	start time.Time

	mu     sync.Mutex
	spans  []spanRec
	stages map[string]stageAgg
	wall   time.Duration
	done   bool
}

// NewTrace starts a trace; id is the request ID, name the plan key.
func NewTrace(id, name string) *Trace {
	return &Trace{id: id, name: name, start: time.Now(), stages: map[string]stageAgg{}}
}

// ID returns the request ID the trace was started with.
func (t *Trace) ID() string { return t.id }

// Finish stamps the wall time; later calls are no-ops.
func (t *Trace) Finish() {
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.wall = time.Since(t.start)
	}
	t.mu.Unlock()
}

// Wall returns the finished wall time (the running time if not finished).
func (t *Trace) Wall() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.wall
	}
	return time.Since(t.start)
}

func (t *Trace) openSpan(name string, t0 time.Time, depth int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: t0.Sub(t.start), dur: -1, depth: depth})
	return len(t.spans) - 1
}

func (t *Trace) closeSpan(idx int, d time.Duration) {
	t.mu.Lock()
	t.spans[idx].dur = d
	t.mu.Unlock()
}

func (t *Trace) addStage(stage string, d time.Duration) {
	t.mu.Lock()
	agg := t.stages[stage]
	agg.count++
	agg.ns += d.Nanoseconds()
	t.stages[stage] = agg
	t.mu.Unlock()
}

// SpanSummary is one timeline span in a trace summary.
type SpanSummary struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
	Depth   int     `json:"depth"`
}

// StageSummary aggregates one stage's cell observations in a trace.
type StageSummary struct {
	Count uint64  `json:"count"`
	MS    float64 `json:"ms"`
}

// TraceSummary is the JSON form of a finished trace — what /tracez returns
// and the access log embeds.
type TraceSummary struct {
	ID     string                  `json:"id"`
	Name   string                  `json:"name"`
	Start  time.Time               `json:"start"`
	WallMS float64                 `json:"wall_ms"`
	Spans  []SpanSummary           `json:"spans,omitempty"`
	Stages map[string]StageSummary `json:"stages,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Summary snapshots the trace.
func (t *Trace) Summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	wall := t.wall
	if !t.done {
		wall = time.Since(t.start)
	}
	s := TraceSummary{ID: t.id, Name: t.name, Start: t.start, WallMS: ms(wall)}
	for _, sp := range t.spans {
		d := sp.dur
		if d < 0 { // still open: report the elapsed time so far
			d = time.Since(t.start) - sp.start
		}
		s.Spans = append(s.Spans, SpanSummary{Name: sp.name, StartMS: ms(sp.start), MS: ms(d), Depth: sp.depth})
	}
	if len(t.stages) > 0 {
		s.Stages = make(map[string]StageSummary, len(t.stages))
		for k, agg := range t.stages {
			s.Stages[k] = StageSummary{Count: agg.count, MS: float64(agg.ns) / 1e6}
		}
	}
	return s
}

// TraceLog retains the N most recent and the N slowest finished traces —
// the /tracez view: "what just happened" and "what ever got slow".
type TraceLog struct {
	mu      sync.Mutex
	cap     int
	recent  []*Trace // ring, next is the write cursor
	next    int
	slowest []*Trace // sorted descending by wall
}

// NewTraceLog returns a log retaining n traces per view.
func NewTraceLog(n int) *TraceLog {
	if n <= 0 {
		n = 32
	}
	return &TraceLog{cap: n}
}

// Record files a finished trace into both views.
func (l *TraceLog) Record(t *Trace) {
	wall := t.Wall()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recent) < l.cap {
		l.recent = append(l.recent, t)
	} else {
		l.recent[l.next] = t
		l.next = (l.next + 1) % l.cap
	}
	if len(l.slowest) < l.cap {
		l.slowest = append(l.slowest, t)
	} else if last := l.slowest[len(l.slowest)-1]; wall > last.Wall() {
		l.slowest[len(l.slowest)-1] = t
	} else {
		return
	}
	for i := len(l.slowest) - 1; i > 0 && l.slowest[i].Wall() > l.slowest[i-1].Wall(); i-- {
		l.slowest[i], l.slowest[i-1] = l.slowest[i-1], l.slowest[i]
	}
}

// Snapshot returns the recent view newest-first and the slowest view in
// descending wall order.
func (l *TraceLog) Snapshot() (recent, slowest []TraceSummary) {
	l.mu.Lock()
	rs := make([]*Trace, 0, len(l.recent))
	for i := 1; i <= len(l.recent); i++ { // newest first: walk back from cursor
		rs = append(rs, l.recent[(l.next-i+len(l.recent)+len(l.recent))%len(l.recent)])
	}
	ss := append([]*Trace(nil), l.slowest...)
	l.mu.Unlock()
	for _, t := range rs {
		recent = append(recent, t.Summary())
	}
	for _, t := range ss {
		slowest = append(slowest, t.Summary())
	}
	return recent, slowest
}
