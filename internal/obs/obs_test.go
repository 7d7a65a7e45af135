package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the `le` semantics: an observation
// exactly on a bound lands in that bound's bucket (cumulative counts are
// over v <= le), and values beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 5, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 1} // (..1], (1..2], (2..5], (5..+Inf)
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: %d observations, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count %d, want 7", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-113.5000001) > 1e-6 {
		t.Errorf("sum %g, want 113.5000001", sum)
	}
}

// TestHistogramQuantiles pins the interpolation: uniform mass in one bucket
// interpolates linearly between its bounds, the +Inf bucket clamps to the
// last finite bound, and an empty histogram reports 0.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", q)
	}
	// 10 observations in (1..2]: pN interpolates to 1 + N/100 * 1.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if q := h.Quantile(0.5); math.Abs(q-1.5) > 1e-9 {
		t.Errorf("p50 = %g, want 1.5", q)
	}
	if q := h.Quantile(0.9); math.Abs(q-1.9) > 1e-9 {
		t.Errorf("p90 = %g, want 1.9", q)
	}
	// Push one observation past every bound: high quantiles clamp to 4.
	h.Observe(1000)
	if q := h.Quantile(1.0); q != 4 {
		t.Errorf("p100 = %g, want clamp to last bound 4", q)
	}
	s := h.Summary()
	if s.Count != 11 || s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("summary not monotone: %+v", s)
	}
}

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines; totals must be exact (run under -race in CI).
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	h := r.Histogram("h_seconds", "test histogram", nil)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Errorf("gauge %g, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*per)
	}
	if got := math.Abs(h.Sum() - workers*per*0.001); got > 1e-6 {
		t.Errorf("histogram sum off by %g", got)
	}
}

// mustPanic runs fn and returns the message it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

// TestRegisterOnce pins the registration contract: a series — one name with
// one label set, in any order — is registered exactly once and a second
// registration panics naming it; other label values of the same name are
// other series; a name keeps one kind. GaugeFunc alone replaces, which
// TestGaugeFuncUnregister pins together with its stale-unregister handle.
func TestRegisterOnce(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "b", "2", "a", "1")
	msg := mustPanic(t, "second registration in another label order", func() {
		r.Counter("x_total", "", "a", "1", "b", "2")
	})
	if want := `obs: metric x_total{a="1",b="2"} registered twice`; msg != want {
		t.Errorf("panic %q, want %q", msg, want)
	}
	if c := r.Counter("x_total", "", "a", "1", "b", "3"); c == a {
		t.Error("different label values aliased")
	}

	r.Gauge("g", "")
	if msg := mustPanic(t, "second Gauge", func() { r.Gauge("g", "") }); !strings.Contains(msg, "g{} registered twice") {
		t.Errorf("panic %q does not name the series", msg)
	}
	r.Histogram("h_seconds", "", nil, "stage", "s")
	mustPanic(t, "second Histogram", func() { r.Histogram("h_seconds", "", nil, "stage", "s") })

	if msg := mustPanic(t, "kind clash", func() { r.Gauge("x_total", "", "a", "9") }); !strings.Contains(msg, "x_total registered as counter and gauge") {
		t.Errorf("kind-clash panic %q", msg)
	}

	// A refused registration leaves the first owner's series in place.
	a.Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `x_total{a="1",b="2"} 1`) {
		t.Errorf("exposition after the refused registrations:\n%s", b.String())
	}
}

// TestPrometheusGolden pins the exposition bytes for a small fixed registry:
// HELP/TYPE lines per family, families sorted by name and — whatever order
// they were registered in — a family's series by labels (Snapshot's contract,
// which both exposition formats render from), cumulative buckets with +Inf,
// _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	for _, code := range []string{"429", "200", "500", "404", "499", "400"} {
		r.Counter("app_requests_total", "Requests served.", "code", code).Add(3)
	}
	r.Gauge("app_queue_depth", "Jobs waiting.").Set(2)
	h := r.Histogram("app_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 30.55
app_latency_seconds_count 3
# HELP app_queue_depth Jobs waiting.
# TYPE app_queue_depth gauge
app_queue_depth 2
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="200"} 3
app_requests_total{code="400"} 3
app_requests_total{code="404"} 3
app_requests_total{code="429"} 3
app_requests_total{code="499"} 3
app_requests_total{code="500"} 3
`
	if b.String() != want {
		t.Errorf("exposition diverges:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestGaugeFunc pins callback gauges: read at scrape time, replaceable.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("fn_gauge", "", func() float64 { return v })
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "fn_gauge 1.5\n") {
		t.Errorf("missing callback value:\n%s", b.String())
	}
	v = 2
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "fn_gauge 2\n") {
		t.Errorf("stale callback value:\n%s", b.String())
	}
}

// TestGaugeFuncUnregister pins the unregister handle: it removes the
// callback from the exposition, and a stale handle — one whose registration
// a later GaugeFunc already replaced — must not drop the successor.
func TestGaugeFuncUnregister(t *testing.T) {
	r := NewRegistry()
	unreg := r.GaugeFunc("fn_gauge", "", func() float64 { return 1 })
	unreg()
	var b strings.Builder
	r.WritePrometheus(&b)
	if strings.Contains(b.String(), "fn_gauge") {
		t.Errorf("unregistered callback still exposed:\n%s", b.String())
	}

	stale := r.GaugeFunc("fn_gauge", "", func() float64 { return 1 })
	r.GaugeFunc("fn_gauge", "", func() float64 { return 2 })
	stale() // replaced registration: must be a no-op
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "fn_gauge 2\n") {
		t.Errorf("stale unregister dropped the successor callback:\n%s", b.String())
	}
}

// TestWriteJSON pins the -obs-json dump: valid JSON carrying the same
// snapshot, with +Inf bounds clamped to stay encodable.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "").Add(7)
	r.Histogram("j_seconds", "", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, b.String())
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range d.Metrics {
		byName[m.Name] = m
	}
	if byName["j_total"].Value != 7 {
		t.Errorf("j_total = %g, want 7", byName["j_total"].Value)
	}
	hs := byName["j_seconds"]
	if hs.Histogram == nil || hs.Histogram.Count != 1 || len(hs.Buckets) != 2 {
		t.Errorf("j_seconds snapshot %+v", hs)
	}
}
