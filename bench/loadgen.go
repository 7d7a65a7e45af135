package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"time"

	"binetrees/bench/span"
)

// latencyLimitMS is the response-time limit: an ok request slower than this
// counts as missing it, as does every failed or shed request.
const latencyLimitMS = 250

// target is one request of the catalogue and the body the CLI produced for it.
type target struct {
	path string
	want []byte
}

// sample is the outcome of one request. Times are seconds since the load
// started, as the clock read them.
type sample struct {
	sent, first, done float64
	status            int  // 0 = transport error
	ok                bool // 200 and the body equals the CLI artifact
}

// latencyMS is the response time the client waited.
func (s sample) latencyMS() float64 { return (s.done - s.sent) * 1e3 }

// sweep is one pass over the whole catalogue: every target once, in a
// seeded random order. It is the operation the serve workload times. Every
// sweep holds the same requests, so the median over sweeps is a median over
// like operations; a per-request median over the catalogue (cheap and dear
// targets, 0.5 ms to 80 ms) is the latency of whichever target happens to
// sit in the middle, and jumps to its neighbour under the slightest noise.
type sweep struct {
	start, done float64
	ok          bool    // every request of the sweep was ok
	factor      float64 // host factor around the sweep (calibrate.go)
}

// latencyMS is the sweep's duration on the reference host.
func (s sweep) latencyMS() float64 { return (s.done - s.start) * 1e3 / s.factor }

// load is a closed loop of one client over the daemon: it sends its next
// request when the previous reply is complete, sweep after sweep. One
// client, because the daemon's pool already spreads a render over both cores
// of the 2-core reference host: a second client only makes renders, the
// generator and the host's neighbours queue for the same two cores, and the
// benchmark would time the scheduler.
type load struct {
	base    string
	targets []target
	order   *rand.Rand // the order of each sweep
	// pace, if set, measures the host factor between sweeps (the daemon is
	// idle meanwhile); without it every sweep's factor is 1.
	pace *pace
	// rec and parent, when rec is non-nil, record one span per request and
	// switch on time-to-first-byte timing.
	rec    *span.Recorder
	parent int
}

// newLoad seeds the sweep orders: the same seed gives the same request
// sequence.
func newLoad(base string, targets []target, seed int64) *load {
	return &load{base: base, targets: targets, order: rand.New(rand.NewSource(seed))}
}

// drive runs the client for `seconds`: it starts a new sweep while the time
// is not up and always completes the one it started. It returns every
// request's outcome and every sweep. A load may be driven again; the orders
// continue where they stopped.
func (l *load) drive(ctx context.Context, seconds float64) (samples []sample, sweeps []sweep) {
	start := time.Now()
	since := func() float64 { return time.Since(start).Seconds() }
	// A private transport that keeps a single connection alive.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for ctx.Err() == nil && since() < seconds {
		sw := sweep{start: since(), ok: true, factor: 1}
		for _, ti := range l.order.Perm(len(l.targets)) {
			s := sample{sent: since()}
			id := l.rec.Start(l.parent, "request "+l.targets[ti].path)
			l.one(ctx, client, l.targets[ti], &s, since)
			l.rec.End(id)
			sw.ok = sw.ok && s.ok
			samples = append(samples, s)
		}
		sw.done = since()
		if l.pace != nil {
			sw.factor = l.pace.next()
		}
		sweeps = append(sweeps, sw)
	}
	return samples, sweeps
}

// one issues a single request and fills in its outcome.
func (l *load) one(ctx context.Context, client *http.Client, t target, s *sample, since func() float64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+t.path, nil)
	if err != nil {
		s.done = since()
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		s.done = since()
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	var body bytes.Buffer
	if l.rec != nil {
		// Time to the first body byte, timed by the client.
		if _, err = io.CopyN(&body, resp.Body, 1); err == nil {
			s.first = since()
		}
	}
	if err == nil {
		_, err = io.Copy(&body, resp.Body)
	}
	s.done = since()
	s.ok = err == nil && s.status == http.StatusOK && bytes.Equal(body.Bytes(), t.want)
}
