// Package pool is the bounded worker pool shared by the experiment harness
// and the artifact service: index-addressed fan-out with deterministic error
// selection.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the pool width used when the caller passes workers <= 0:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// MaxWidth caps a requested pool width or flight budget. A width past it is
// a mistake, not a machine: honouring it would start that many goroutines
// (NewRunner) or size a channel by it, so callers check a requested width
// with CheckWidth before they build anything.
const MaxWidth = 1024

// CheckWidth returns an error naming what when n exceeds MaxWidth.
func CheckWidth(what string, n int) error {
	if n > MaxWidth {
		return fmt.Errorf("%s %d exceeds the cap of %d", what, n, MaxWidth)
	}
	return nil
}

// Width is the pool width a requested worker count resolves to.
func Width(workers int) int {
	if workers <= 0 {
		return DefaultWorkers()
	}
	return workers
}

// Runner is a reusable fixed-width pool: every batch submitted through its
// ForEach shares the same long-lived workers, so one process-wide instance
// can drain the cells of many experiments — across systems — at once,
// instead of each experiment spinning up and tearing down its own
// goroutines. Batches may be submitted from different goroutines
// concurrently; their jobs interleave on the shared workers. A batch's fn
// must not call back into the same Runner (the nested submit would wait on
// workers the caller occupies).
type Runner struct {
	jobs    chan func()
	wg      sync.WaitGroup
	workers int

	// Observability counters, maintained with atomics on the job path so a
	// resident service Runner can expose queue depth, in-flight work, and
	// cumulative wait/busy time without locks (see Stats).
	queued   atomic.Int64
	inFlight atomic.Int64
	done     atomic.Uint64
	waitNs   atomic.Int64
	busyNs   atomic.Int64
}

// RunnerStats is a point-in-time view of a Runner's job flow.
type RunnerStats struct {
	// Workers is the fixed pool width.
	Workers int
	// QueueDepth counts jobs submitted but not yet picked up by a worker.
	QueueDepth int64
	// InFlight counts jobs currently executing.
	InFlight int64
	// JobsDone counts completed jobs over the Runner's lifetime.
	JobsDone uint64
	// WaitSeconds totals submit-to-start latency across all jobs — the
	// queue pressure signal.
	WaitSeconds float64
	// BusySeconds totals execution time — worker utilization is
	// BusySeconds / (uptime × Workers).
	BusySeconds float64
}

// Stats snapshots the runner's observability counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Workers:     r.workers,
		QueueDepth:  r.queued.Load(),
		InFlight:    r.inFlight.Load(),
		JobsDone:    r.done.Load(),
		WaitSeconds: float64(r.waitNs.Load()) / 1e9,
		BusySeconds: float64(r.busyNs.Load()) / 1e9,
	}
}

// NewRunner starts a pool of the given width (<= 0 selects DefaultWorkers).
// Close it when no more batches will be submitted.
func NewRunner(workers int) *Runner {
	workers = Width(workers)
	r := &Runner{jobs: make(chan func()), workers: workers}
	r.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			for f := range r.jobs {
				f()
			}
		}()
	}
	return r
}

// Workers returns the pool width.
func (r *Runner) Workers() int { return r.workers }

// Close stops the workers once every submitted job has run.
func (r *Runner) Close() {
	close(r.jobs)
	r.wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) on the runner's shared workers.
// Indices are submitted in ascending order and a submitted index always runs
// to completion; after an observed failure no further indices are submitted.
// Because every failure observed at submission time comes from a lower index,
// the lowest failing index always runs, and its error is returned — the same
// error a serial loop would stop on.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	//binelint:ignore ctxflow ForEach is the documented context-free entry point; request paths use ForEachCtx
	return r.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach bounded by a context — the request-scoped form used
// by the artifact service, whose resident Runner outlives any one request:
// once ctx is cancelled no further indices are submitted (already-submitted
// indices still run to completion, so shared state stays consistent), and
// ctx.Err() is returned unless a submitted index failed first, in which case
// the usual lowest-failing-index error wins. A batch whose indices were all
// submitted before cancellation was observed returns nil.
func (r *Runner) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	cancelled := false
	for i := 0; i < n; i++ {
		// The failure check precedes the submission, so a raised flag
		// necessarily comes from an already-submitted, lower index.
		if failed.Load() {
			break
		}
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		i := i
		wg.Add(1)
		submitted := time.Now()
		r.queued.Add(1)
		r.jobs <- func() {
			started := time.Now()
			r.queued.Add(-1)
			r.inFlight.Add(1)
			r.waitNs.Add(started.Sub(submitted).Nanoseconds())
			defer func() {
				r.busyNs.Add(time.Since(started).Nanoseconds())
				r.inFlight.Add(-1)
				r.done.Add(1)
				wg.Done()
			}()
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}
