// Admission control for non-follower flights. The resident Runner has a
// fixed width, so an unbounded burst of *distinct*-plan requests used to
// queue renders without limit — every one launched a goroutine and piled
// cells into the pool, and nothing told clients to back off. The admission
// layer bounds that: at most maxFlights renders hold a token at once, at
// most as many again wait for one, and everything beyond that is shed with
// 429 + Retry-After so clients retry when capacity is actually likely.
//
// Followers never touch admission: joining an in-flight render adds no work,
// so a thundering herd of one artifact costs one token no matter its size.

package service

import (
	"context"
	"sync/atomic"

	"binetrees/internal/obs"
)

// Admission decisions, counted per decision on /metrics.
var (
	obsAdmitted = obs.Default.Counter("binebenchd_admission_total",
		"Flight admission decisions, by outcome.", "decision", "admitted")
	obsQueued = obs.Default.Counter("binebenchd_admission_total",
		"Flight admission decisions, by outcome.", "decision", "queued")
	obsShed = obs.Default.Counter("binebenchd_admission_total",
		"Flight admission decisions, by outcome.", "decision", "shed")
)

type admitDecision int

const (
	admitNow   admitDecision = iota // token acquired, render immediately
	admitQueue                      // no token free; wait for one via await
	admitShed                       // wait queue full; reject the request
)

// admission is the flight budget: a token channel bounding concurrent
// renders plus a counted (not materialized) wait queue bounding how many
// flights may block for a token — maxFlights of each. decide is called under
// the flightGroup mutex, which serializes the queue-length check; waiting is
// still atomic because await decrements it outside that lock.
type admission struct {
	maxFlights int
	tokens     chan struct{} // len == renders currently holding a token

	waiting atomic.Int64
}

func newAdmission(maxFlights int) *admission {
	return &admission{maxFlights: maxFlights, tokens: make(chan struct{}, maxFlights)}
}

// decide classifies a brand-new flight. Called under the flightGroup mutex.
func (a *admission) decide() admitDecision {
	select {
	case a.tokens <- struct{}{}:
		obsAdmitted.Inc()
		return admitNow
	default:
	}
	if a.waiting.Load() >= int64(a.maxFlights) {
		obsShed.Inc()
		return admitShed
	}
	a.waiting.Add(1)
	obsQueued.Inc()
	return admitQueue
}

// await blocks a queued flight until a token frees up or ctx ends (every
// reader left, or the server is shutting down). On success the caller holds
// a token and must release it.
func (a *admission) await(ctx context.Context) error {
	defer a.waiting.Add(-1)
	select {
	case a.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns a render's token, unblocking the longest-waiting queued
// flight if any.
func (a *admission) release() { <-a.tokens }

// inFlight reports how many renders currently hold a token.
func (a *admission) inFlight() int { return len(a.tokens) }
