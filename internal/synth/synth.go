// Package synth emits communication traces directly from schedule math —
// the cold-path replacement for recording on the goroutine fabric. Every
// schedule in internal/coll is deterministic and data-independent given
// (collective, algorithm, rank count, root, vector length), so the
// (step, from, to, sub, elems) columns a fabric.Trace stores are a pure
// function of the schedule definition: synth walks each rank's schedule
// body serially against a fabric.TraceBuilder pattern endpoint (Sends are
// logged, Recvs complete immediately) and merges the columns with the same
// shard sort and merge the Recorder uses. The result is
// byte-identical under the codec to a recorded trace of the same schedule
// — pinned by this package's tests across the whole registry and, for every
// schedule the artifacts use, by the harness's
// TestSynthMatchesRecordedOracle.
//
// The goroutine fabric remains the oracle: property/fuzz tests and the
// tcp-cluster example still execute schedules for real, and the harness
// records on it with synthesis disabled. A synthesis error is not retried
// there: it fails the request.
package synth

import (
	"fmt"
	"time"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/obs"
)

// Synthesis metrics in the process-wide obs registry: how often the cold
// path runs, how long a synthesis takes, and how much trace volume it emits.
var (
	obsTraces = obs.Default.Counter("binebench_synth_traces_total",
		"Traces emitted by schedule synthesis.")
	obsRecords = obs.Default.Counter("binebench_synth_trace_records_total",
		"Send records across all synthesized traces.")
	obsSeconds = obs.Default.Histogram("binebench_synth_seconds",
		"Wall time of one trace synthesis (all ranks, merge included).", nil)
)

func observe(tr *fabric.Trace, start time.Time) {
	obsSeconds.ObserveSince(start)
	obsTraces.Inc()
	obsRecords.Add(uint64(tr.Messages()))
}

// Schedule emits the trace of one registry schedule by walking every rank
// in ascending order.
func Schedule(s coll.Synthesizer) (*fabric.Trace, error) {
	start := time.Now()
	p := s.Ranks()
	b := fabric.NewTraceBuilder(p)
	for rank := 0; rank < p; rank++ {
		if err := s.Walk(rank, b.Comm(rank)); err != nil {
			return nil, fmt.Errorf("synth: rank %d: %w", rank, err)
		}
	}
	tr := b.Trace()
	observe(tr, start)
	return tr, nil
}

// Run is the ad-hoc form of Schedule for schedule bodies outside the
// registry (torus, named tree/butterfly and hierarchical schedules): fn is
// the same per-rank body a fabric.Run recording would execute, driven here
// once per rank, serially, against pattern endpoints.
func Run(p int, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	start := time.Now()
	b := fabric.NewTraceBuilder(p)
	for rank := 0; rank < p; rank++ {
		if err := fn(b.Comm(rank)); err != nil {
			return nil, fmt.Errorf("synth: rank %d: %w", rank, err)
		}
	}
	tr := b.Trace()
	observe(tr, start)
	return tr, nil
}
