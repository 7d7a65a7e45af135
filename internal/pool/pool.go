// Package pool is the bounded worker pool shared by the experiment harness
// and the CLIs: index-addressed fan-out with deterministic error selection.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers is the pool width used when the caller passes workers <= 0:
// one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers). Indices are dispatched in
// ascending order and a dispatched index always runs to completion; after
// a failure no further indices are dispatched. Because every failure
// observed at dispatch time comes from a lower index, the lowest failing
// index always runs, and its error is returned — the same error a serial
// loop would stop on. With workers == 1 the indices run strictly in order
// on the calling goroutine; the parallel path delegates to a one-shot
// Runner, the single implementation of those guarantees.
func ForEach(workers, n int, fn func(i int) error) error {
	// Compatibility wrapper for context-free batch callers (CLI paths that
	// own the whole process lifetime); everything request-scoped goes through
	// ForEachCtx.
	//binelint:ignore ctxflow ForEach is the documented context-free entry point; request paths use ForEachCtx
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach bounded by a context: once ctx is cancelled no
// further indices are dispatched (already-dispatched indices run to
// completion, keeping shared state consistent) and ctx.Err() is returned —
// unless a dispatched index failed first, in which case the usual
// lowest-failing-index error wins. The serial workers <= 1 path checks the
// context between indices, so cancellation has the same cut-off semantics at
// any pool width.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	r := NewRunner(workers)
	defer r.Close()
	return r.ForEachCtx(ctx, n, fn)
}

// Collect is ForEach with a result slot per index: fn(i)'s value lands in
// slot i of the returned slice, giving callers an index-addressed result
// set that a serial pass can merge in deterministic order.
func Collect[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	outs := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		outs[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
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
	Workers int `json:"workers"`
	// QueueDepth counts jobs submitted but not yet picked up by a worker.
	QueueDepth int64 `json:"queue_depth"`
	// InFlight counts jobs currently executing.
	InFlight int64 `json:"in_flight"`
	// JobsDone counts completed jobs over the Runner's lifetime.
	JobsDone uint64 `json:"jobs_done"`
	// WaitSeconds totals submit-to-start latency across all jobs — the
	// queue pressure signal.
	WaitSeconds float64 `json:"wait_seconds"`
	// BusySeconds totals execution time — worker utilization is
	// BusySeconds / (uptime × Workers).
	BusySeconds float64 `json:"busy_seconds"`
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
	if workers <= 0 {
		workers = DefaultWorkers()
	}
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

// Pressure reports how much work the pool currently holds: cells waiting in
// the queue plus cells running on workers. No product code reads it —
// admission control budgets flights, not cells; it is the drain probe of the
// pool and service tests, where a pressure of zero means a disconnect storm
// has fully drained (every aborted flight's cells finished or were never
// dispatched).
func (r *Runner) Pressure() int64 { return r.queued.Load() + r.inFlight.Load() }

// Close stops the workers once every submitted job has run.
func (r *Runner) Close() {
	close(r.jobs)
	r.wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) on the runner's shared workers
// with the package-level ForEach guarantees: indices are submitted in
// ascending order and a submitted index always runs; after an observed
// failure no further indices are submitted, so the lowest failing index
// always runs and its error is returned — the same error a serial loop
// would stop on.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	//binelint:ignore ctxflow ForEach is the documented context-free entry point; request paths use ForEachCtx
	return r.ForEachCtx(context.Background(), n, fn)
}

// ForEachCtx is ForEach bounded by a context — the request-scoped form used
// by the artifact service, whose resident Runner outlives any one request:
// once ctx is cancelled no further indices are submitted (already-submitted
// indices still run to completion, so shared state stays consistent), and
// ctx.Err() is returned unless a submitted index failed first, in which case
// the usual lowest-failing-index error wins.
func (r *Runner) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	cancelled := false
	for i := 0; i < n; i++ {
		// As in the package-level ForEach, the failure check precedes the
		// claim (here: the submission), so a raised flag necessarily comes
		// from an already-submitted, lower index.
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
