// Package synth is the cold path's replacement for recording on the
// goroutine fabric: it emits communication traces from schedule math and
// counts what it emits. Every schedule in internal/coll is deterministic and
// data-independent given (collective, algorithm, rank count, root, vector
// length), so the (step, from, to, elems) columns a fabric.Trace stores are
// a pure function of the schedule definition.
//
// Schedule takes a coll.Synthesizer: for the butterfly and all-pairs
// schedules, and Fig. 5's butterfly allreduces, the plan their executors
// loop over, fed step by step into a fabric.StepBuilder; for every other
// registry algorithm, the torus collectives of coll.TorusRegistry among
// them, a coll.Walk of each rank's schedule body, serially, against a
// fabric.TraceBuilder pattern endpoint (Sends are logged, Recvs complete
// immediately). Run walks an ad-hoc schedule body — the named tree,
// hierarchical and Appendix D schedules — the same way. Either result is
// byte-identical under the codec to a recorded trace of the same schedule:
// this package's tests pin that across both registries, and plans against
// walks at the largest p the artifacts use; for every schedule the
// artifacts use, so does the harness's TestSynthMatchesRecordedOracle, and
// at paper scale its TestPaperScaleTraces.
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

// Schedule emits the trace of one schedule.
func Schedule(s coll.Synthesizer) (*fabric.Trace, error) {
	start := time.Now()
	tr, err := s.Synthesize()
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	obsSeconds.ObserveSince(start)
	obsTraces.Inc()
	obsRecords.Add(uint64(tr.Messages()))
	return tr, nil
}

// Run is the ad-hoc form of Schedule for schedule bodies outside the
// registries (named tree, hierarchical and Appendix D schedules): fn is
// the same per-rank body a fabric.Run recording would execute, walked here
// once per rank, serially, against pattern endpoints (coll.Walk).
func Run(p int, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	return Schedule(coll.Walk(p, fn))
}
