package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndex covers the width edge cases: 0 selects
// DefaultWorkers, and a pool wider than the batch still runs each index once.
func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var hits [n]int32
		r := NewRunner(workers)
		if workers == 0 && r.Workers() != DefaultWorkers() {
			t.Fatalf("width %d, want DefaultWorkers %d", r.Workers(), DefaultWorkers())
		}
		err := r.ForEach(n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		r.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachStopsDispatchingAfterFailure pins how far past a failure a
// batch can run: with one worker, index i+1 is checked for submission while
// index i may still be running, so at most one index after the failing one
// runs — index i+2 is only checked once the worker has taken i+1, which is
// after i failed.
func TestForEachStopsDispatchingAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran [10]bool
	r := NewRunner(1)
	defer r.Close()
	err := r.ForEach(10, func(i int) error {
		ran[i] = true
		if i == 4 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v", err)
	}
	for i, got := range ran {
		if i != 5 && got != (i <= 4) {
			t.Fatalf("index %d ran=%v, want %v", i, got, i <= 4)
		}
	}
}

// TestForEachClaimedIndicesAlwaysRun pins the determinism argument: an
// index submitted before a failure must run even if a higher index fails
// while it is in flight, so the lowest failing index always records its
// error. Index 0 blocks until index 9 has failed, then fails itself; the
// returned error must be index 0's.
func TestForEachClaimedIndicesAlwaysRun(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	highFailed := make(chan struct{})
	r := NewRunner(4)
	defer r.Close()
	err := r.ForEach(10, func(i int) error {
		switch i {
		case 0:
			<-highFailed
			return errLow
		case 9:
			defer close(highFailed)
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the in-flight lower index's error", err)
	}
}

func TestRunnerRunsEveryIndexAcrossBatches(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		r := NewRunner(workers)
		if r.Workers() != workers {
			t.Fatalf("width %d, want %d", r.Workers(), workers)
		}
		const n = 57
		var hits [n]int32
		// Two sequential batches and the residue of a third share the
		// same workers.
		for batch := 0; batch < 3; batch++ {
			err := r.ForEach(n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d batch %d: %v", workers, batch, err)
			}
		}
		r.Close()
		for i, h := range hits {
			if h != 3 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestRunnerConcurrentBatches(t *testing.T) {
	r := NewRunner(4)
	defer r.Close()
	const batches, n = 6, 40
	var total atomic.Int64
	errc := make(chan error, batches)
	for b := 0; b < batches; b++ {
		go func() {
			errc <- r.ForEach(n, func(i int) error {
				total.Add(int64(i))
				return nil
			})
		}()
	}
	for b := 0; b < batches; b++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if want := int64(batches * n * (n - 1) / 2); total.Load() != want {
		t.Fatalf("total %d, want %d", total.Load(), want)
	}
}

func TestRunnerReturnsLowestIndexErrorAndStops(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		r := NewRunner(workers)
		var submitted atomic.Int64
		err := r.ForEach(200, func(i int) error {
			submitted.Add(1)
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		r.Close()
		if err != errA {
			t.Fatalf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
		if submitted.Load() == 200 {
			t.Fatalf("workers=%d: failure did not stop submission", workers)
		}
	}
}

func TestRunnerZeroJobs(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	if err := r.ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerStats pins the observability counters: after a drained batch
// the queue and in-flight gauges are back to zero, every job is counted
// done, and the wait/busy accumulators moved.
func TestRunnerStats(t *testing.T) {
	r := NewRunner(2)
	defer r.Close()
	const n = 50
	if err := r.ForEach(n, func(i int) error {
		if s := r.Stats(); s.InFlight < 1 || s.InFlight > 2 {
			t.Errorf("in-flight %d outside pool width", s.InFlight)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Workers != 2 || s.QueueDepth != 0 || s.InFlight != 0 || s.JobsDone != n {
		t.Fatalf("stats after drain: %+v", s)
	}
	if s.WaitSeconds < 0 || s.BusySeconds <= 0 {
		t.Fatalf("time accumulators: %+v", s)
	}
}

// TestForEachCtxPreCancelled pins the cancellation cut-off at width one and
// above: a context cancelled before the call runs nothing and returns
// ctx.Err().
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		r := NewRunner(workers)
		err := r.ForEachCtx(ctx, 50, func(i int) error {
			ran.Add(1)
			return nil
		})
		r.Close()
		if err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d indices ran under a pre-cancelled context", workers, ran.Load())
		}
	}
}

// TestForEachCtxStopsDispatchingOnCancel cancels mid-drain: index 3 cancels
// the context, after which no further indices may be dispatched (in-flight
// ones complete), and the batch reports ctx.Err().
func TestForEachCtxStopsDispatchingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		r := NewRunner(workers)
		err := r.ForEachCtx(ctx, 200, func(i int) error {
			ran.Add(1)
			if i == 3 {
				cancel()
			}
			return nil
		})
		r.Close()
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n == 200 {
			t.Fatalf("workers=%d: cancellation did not stop dispatch (all %d ran)", workers, n)
		} else if n < 4 {
			t.Fatalf("workers=%d: only %d indices ran before the cancelling index finished", workers, n)
		}
	}
}

// TestForEachCtxErrorBeatsCancel pins the error-selection order: when a
// dispatched index fails and the context is also cancelled, the index error
// wins — cancellation is the less specific signal.
func TestForEachCtxErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		r := NewRunner(workers)
		err := r.ForEachCtx(ctx, 100, func(i int) error {
			if i == 2 {
				cancel()
				return boom
			}
			return nil
		})
		r.Close()
		cancel()
		if err != boom {
			t.Fatalf("workers=%d: got %v, want the index error over ctx.Err()", workers, err)
		}
	}
}

// TestRunnerForEachCtxCancelKeepsRunnerUsable pins that a cancelled batch
// leaves the shared Runner fit for the next request — the service's resident
// pool must survive aborted requests.
func TestRunnerForEachCtxCancelKeepsRunnerUsable(t *testing.T) {
	r := NewRunner(3)
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.ForEachCtx(ctx, 50, func(int) error { return nil }); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	var ran atomic.Int64
	if err := r.ForEach(50, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Fatalf("follow-up batch ran %d/50 indices", ran.Load())
	}
	if s := r.Stats(); s.QueueDepth != 0 || s.InFlight != 0 {
		t.Fatalf("gauges after drain: %+v", s)
	}
}
