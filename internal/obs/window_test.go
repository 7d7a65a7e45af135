package obs

import (
	"testing"
	"time"
)

// fakeClock drives a Window's epoch rotation deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newWindowAt(h *Histogram, interval time.Duration, c *fakeClock) *Window {
	w := NewWindow(h, interval)
	w.now = c.now
	return w
}

// TestWindowTracksRecentObservations pins the recency contract: after the
// load shape changes, the windowed quantile follows the new shape within two
// intervals while the lifetime quantile stays dominated by history.
func TestWindowTracksRecentObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w_test_seconds", "t", []float64{0.01, 0.1, 1, 10})
	clock := &fakeClock{t: time.Unix(1000, 0)}
	w := newWindowAt(h, 10*time.Second, clock)

	// Epoch 0: a thousand fast observations.
	for i := 0; i < 1000; i++ {
		h.Observe(0.005)
	}
	if got := w.Quantile(0.95); got > 0.01 {
		t.Fatalf("fast-epoch p95 = %v, want <= 0.01", got)
	}

	// Next epochs: the service slows down to ~5s. After two rotations the
	// window must have forgotten the fast millennium entirely.
	for epoch := 0; epoch < 2; epoch++ {
		clock.advance(10 * time.Second)
		for i := 0; i < 10; i++ {
			h.Observe(5)
		}
		w.Quantile(0.95) // rotate
	}
	// Mid-epoch: the window now spans only the slow observations.
	clock.advance(5 * time.Second)
	got := w.Quantile(0.95)
	if got < 1 {
		t.Fatalf("slow-epoch windowed p95 = %v, want >= 1", got)
	}
	// The lifetime estimate is still dominated by the 1000 fast samples.
	if life := h.Quantile(0.95); life > 0.01 {
		t.Fatalf("lifetime p95 = %v, want <= 0.01 (1000 fast vs 20 slow)", life)
	}
}

// TestWindowEmptyFallsBackToLifetime pins the idle behavior: with nothing
// observed in the recent window the estimate falls back to the lifetime
// quantile rather than reporting zero.
func TestWindowEmptyFallsBackToLifetime(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w_idle_seconds", "t", []float64{0.01, 0.1, 1, 10})
	clock := &fakeClock{t: time.Unix(2000, 0)}
	w := newWindowAt(h, 10*time.Second, clock)

	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	w.Quantile(0.95) // snapshot the observations into the epoch base

	// A long idle stretch: both snapshots go stale, the window is empty.
	clock.advance(time.Hour)
	got := w.Quantile(0.95)
	want := h.Quantile(0.95)
	if got != want {
		t.Fatalf("idle windowed p95 = %v, want lifetime %v", got, want)
	}
	if got == 0 {
		t.Fatal("idle fallback reported zero despite lifetime history")
	}
}

// TestWindowEmptyHistogram: a window over a never-observed histogram
// reports zero (the caller treats that as "no estimate").
func TestWindowEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w_zero_seconds", "t", nil)
	w := NewWindow(h, 0)
	if got := w.Quantile(0.95); got != 0 {
		t.Fatalf("empty histogram windowed p95 = %v, want 0", got)
	}
}

// TestWindowQuantileStaysInBucket pins what Retry-After rests on:
// observations planted inside one bucket keep the windowed p95 inside that
// bucket's bounds, however much older history lies elsewhere, before and
// after an epoch rotation.
func TestWindowQuantileStaysInBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("w_bucket_seconds", "t", nil) // DefBuckets: ... 2.5, 5, ...
	for i := 0; i < 1000; i++ {
		h.Observe(0.001) // lifetime history the window must not see
	}
	clock := &fakeClock{t: time.Unix(3000, 0)}
	w := newWindowAt(h, 10*time.Second, clock)
	w.Quantile(0.95) // the first epoch starts after the history
	check := func(when string) {
		t.Helper()
		if got := w.Quantile(0.95); got <= 2.5 || got > 5 {
			t.Fatalf("%s: windowed p95 = %v, want in (2.5, 5]", when, got)
		}
	}
	for i := 0; i < 20; i++ {
		h.Observe(3 + float64(i)/10)
	}
	check("before rotation")
	clock.advance(10 * time.Second)
	check("across one rotation")
	for i := 0; i < 5; i++ {
		h.Observe(4.9)
	}
	check("in the second epoch")
	clock.advance(10 * time.Second)
	check("across a second rotation") // only the second epoch's five remain
}
