// Package obs is the pipeline's dependency-free observability substrate:
// monotonic counters, gauges, and fixed-bucket latency histograms collected
// in a process-wide registry, plus a lightweight span/trace layer (span.go)
// that turns one request's stage timings into a timeline. The registry
// exposes itself three ways — hand-rolled Prometheus text exposition
// (WritePrometheus, no client library), a JSON snapshot (WriteJSON, the
// binebench -obs-json dump), and per-histogram quantile summaries — so the
// sweep CLI, the artifact service, and CI all read the same vocabulary.
//
// Everything is stdlib-only and safe for concurrent use; metric operations
// (Inc/Add/Set/Observe) are lock-free atomics so instrumented hot paths pay
// a few nanoseconds, never a lock or an allocation.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds in seconds: roughly
// exponential from 100µs (a warm cache lookup) to 60s (a full-scale cold
// render stage), the range the pipeline's stages actually span.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Default is the process-wide registry every instrumented package reports
// into; /metrics and -obs-json expose it.
var Default = NewRegistry()

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every label variant of one metric name under one HELP/TYPE
// pair, the unit Prometheus exposition is organized around.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64
	mu      sync.Mutex
	metrics map[string]any // canonical label string → metric
}

// Registry is a set of named metrics. A series — one (name, labels) pair —
// is registered exactly once, by its one owner, which keeps the returned
// pointer: a second registration panics (see register), and steady-state
// observation never touches the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code uses Default; tests that
// assert exact counts or exposition bytes build their own.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString canonicalizes alternating key/value label pairs into the
// rendered `key="value",...` form, sorted by key, that identifies a metric
// within its family and prints verbatim in the exposition.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (r *Registry) family(name, help string, typ metricType, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, metrics: map[string]any{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// register adds m as the series (f.name, labels). A series has one owner:
// registering the same name with the same labels (in any order) a second
// time panics, like a kind clash does — two sites sharing one series would
// double-count each other's increments and no test would see it.
func (f *family) register(labels []string, m any) {
	ls := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.metrics[ls]; dup {
		panic(fmt.Sprintf("obs: metric %s{%s} registered twice", f.name, ls))
	}
	f.metrics[ls] = m
}

// Counter registers and returns the monotonic counter for (name, labels).
// labels are alternating key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.family(name, help, counterType, nil).register(labels, c)
	return c
}

// Gauge registers and returns the settable gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{}
	r.family(name, help, gaugeType, nil).register(labels, g)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the form used for values another subsystem already tracks (queue depth on
// the resident pool, uptime, readiness). Re-registering the same (name,
// labels) replaces the callback. The returned func unregisters the callback
// so an owner being shut down stops getting invoked (and stops being pinned)
// by scrapes; it is a no-op once a later registration has replaced this one,
// so a stale unregister can never drop a successor's callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) func() {
	f := r.family(name, help, gaugeType, nil)
	ls := labelString(labels)
	m := &gaugeFunc{fn: fn}
	f.mu.Lock()
	f.metrics[ls] = m
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		if f.metrics[ls] == any(m) {
			delete(f.metrics, ls)
		}
		f.mu.Unlock()
	}
}

// Histogram registers and returns the fixed-bucket histogram for (name,
// labels). buckets are ascending upper bounds (an implicit +Inf bucket is
// appended); nil selects DefBuckets. The bucket layout is fixed by the first
// registration of the name.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, histogramType, buckets)
	h := newHistogram(f.buckets)
	f.register(labels, h)
	return h
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (CAS loop, safe concurrently).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFunc is a pointer-identified callback gauge entry: the pointer
// identity lets GaugeFunc's unregister handle tell "still mine" from
// "replaced by a later registration".
type gaugeFunc struct{ fn func() float64 }

// Histogram is a fixed-bucket latency histogram: per-bucket counts, a total
// count and a sum, all atomics. Quantiles are estimated by linear
// interpolation within the crossing bucket (the same estimate Prometheus's
// histogram_quantile makes from the exposition).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the `le` bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// bucketCounts snapshots the per-bucket counts (not cumulative) — the raw
// material Window deltas against for recent-quantile estimates.
func (h *Histogram) bucketCounts() []uint64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket counts:
// linear interpolation between the crossing bucket's bounds, the highest
// finite bound for observations in the +Inf bucket, and 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	return quantileOver(h.bounds, h.bucketCounts(), q)
}

// quantileOver is the interpolation core shared by lifetime and windowed
// quantiles: counts are per-bucket (bounds plus a trailing +Inf bucket).
func quantileOver(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(bounds) { // +Inf bucket: clamp to the last finite bound
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// HistogramSummary is the digest of one histogram: count, sum, and the
// p50/p95/p99 latency estimates.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// MetricSnapshot is one metric's state in a registry Snapshot.
type MetricSnapshot struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"` // canonical `k="v",...` form
	Type   string `json:"type"`
	// Value holds counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Histogram holds the digest for histogram metrics.
	Histogram *HistogramSummary `json:"histogram,omitempty"`
	// Buckets holds the cumulative per-bucket counts (le → count).
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket: observations <= LE.
type BucketCount struct {
	LE    float64 `json:"le"` // +Inf encodes as math.Inf(1)
	Count uint64  `json:"count"`
}

// Snapshot captures every metric, sorted by name then labels — the single
// source for both exposition formats.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var out []MetricSnapshot
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := MetricSnapshot{Name: f.name, Labels: k, Type: f.typ.String()}
			switch m := f.metrics[k].(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = m.Value()
			case *gaugeFunc:
				s.Value = m.fn()
			case *Histogram:
				sum := m.Summary()
				s.Histogram = &sum
				var cum uint64
				for i := range m.counts {
					cum += m.counts[i].Load()
					le := math.Inf(1)
					if i < len(m.bounds) {
						le = m.bounds[i]
					}
					s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
				}
			}
			out = append(out, s)
		}
		f.mu.Unlock()
	}
	return out
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLE(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(le, 'g', -1, 64)
}

func writeSeries(w io.Writer, name, labels, suffix, extraLabel, value string) error {
	ls := labels
	if extraLabel != "" {
		if ls != "" {
			ls += ","
		}
		ls += extraLabel
	}
	if ls != "" {
		ls = "{" + ls + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s%s %s\n", name, suffix, ls, value)
	return err
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE per family, counters and gauges as single
// series, histograms as cumulative _bucket series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	r.mu.Lock()
	helps := make(map[string]string, len(r.families))
	for n, f := range r.families {
		helps[n] = f.help
	}
	r.mu.Unlock()
	lastName := ""
	for _, s := range snaps {
		if s.Name != lastName {
			lastName = s.Name
			if h := helps[s.Name]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, strings.ReplaceAll(h, "\n", " ")); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
				return err
			}
		}
		if s.Histogram == nil {
			if err := writeSeries(w, s.Name, s.Labels, "", "", formatValue(s.Value)); err != nil {
				return err
			}
			continue
		}
		for _, b := range s.Buckets {
			le := fmt.Sprintf(`le="%s"`, formatLE(b.LE))
			if err := writeSeries(w, s.Name, s.Labels, "_bucket", le, strconv.FormatUint(b.Count, 10)); err != nil {
				return err
			}
		}
		if err := writeSeries(w, s.Name, s.Labels, "_sum", "", strconv.FormatFloat(s.Histogram.Sum, 'g', -1, 64)); err != nil {
			return err
		}
		if err := writeSeries(w, s.Name, s.Labels, "_count", "", strconv.FormatUint(s.Histogram.Count, 10)); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a Prometheus /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
