// Package span is the benchmark's in-memory span recorder: the traced run
// wraps every probe call, subprocess and request in a span (name, start,
// end, parent), keeps them in memory, and writes them out once at exit. A
// nil *Recorder records nothing, so the untraced run pays for no tracing.
package span

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Times are seconds since the recorder started;
// Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload,omitempty"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	// Self is the span's duration minus the part of it its child spans
	// cover (children may overlap each other; covered time counts once).
	Self float64 `json:"self_s"`
}

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

// New returns a recorder whose clock starts now; every span it records is
// labelled with workload.
func New(workload string) *Recorder {
	return &Recorder{workload: workload, t0: time.Now()}
}

// Now returns the recorder's clock, in seconds since it started.
func (r *Recorder) Now() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.t0).Seconds()
}

// Start opens a span under parent and returns its ID.
func (r *Recorder) Start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := r.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now, End: now})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Graft adds spans recorded by another process (the probe) under parent:
// their clock started at offset on this recorder's clock, and their IDs are
// renumbered to stay unique.
func (r *Recorder) Graft(parent int, sub []Span, offset float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range sub {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Workload = r.workload
		s.Start += offset
		s.End += offset
		r.spans = append(r.spans, s)
	}
}

// Spans returns every recorded span with Self filled in.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - covered(children[out[i].ID], out[i].Start, out[i].End)
	}
	return out
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping intervals once.
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}
