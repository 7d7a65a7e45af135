package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"binetrees/internal/fabric"
	"binetrees/internal/tracestore"
)

// hammerKey fires lanes concurrent eng.cachedTraceKey calls at one key, holding
// the recording in flight until every lane has started so the waiter path is
// actually exercised, and returns how many callers saw an error.
func hammerKey(t *testing.T, eng *Engine, key tracestore.Key, lanes int, record func() (*fabric.Trace, error)) int {
	t.Helper()
	var entered, errCount atomic.Int32
	rec := func() (*fabric.Trace, error) {
		for int(entered.Load()) < lanes {
			runtime.Gosched() // keep the entry mid-recording until all lanes piled on
		}
		return record()
	}
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			if _, err := eng.cachedTraceKey(context.Background(), key, nil, rec); err != nil {
				errCount.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(errCount.Load())
}

// TestMemoryHitAccountingConcurrent is the regression test for the warm-hit
// over-reporting bug: cachedTraceKey used to count a memory hit for every
// waiter that found an existing entry, even when that entry was still
// mid-recording and ultimately errored and was evicted. Hits must only be
// counted for entries that resolved successfully.
func TestMemoryHitAccountingConcurrent(t *testing.T) {
	t.Parallel()
	eng := &Engine{DisableSynth: true} // the pile-up is on the recording leg
	const lanes = 16
	key := func(name string) tracestore.Key {
		return tracestore.Key{Kind: "test-stats", Algo: name, Shape: "8", SchedVersion: schedVersion}
	}

	// Every lane piles onto one entry whose recording fails: nobody was
	// served from the warm tier, so no memory hit may be counted.
	failed := hammerKey(t, eng, key("fails"), lanes, func() (*fabric.Trace, error) {
		return nil, errors.New("recording timed out")
	})
	if failed != lanes {
		t.Fatalf("%d of %d lanes saw the recording error", failed, lanes)
	}
	s := eng.Stats()
	if s.MemoryHits != 0 {
		t.Fatalf("failed entry counted %d memory hits, want 0 (stats %+v)", s.MemoryHits, s)
	}
	if s.Records == 0 {
		t.Fatalf("no recording attempt counted: %+v", s)
	}

	// The same pile-up on a succeeding recording: exactly one lane records,
	// every other lane is a genuine warm hit.
	tr := fabric.NewTrace(8, []fabric.Record{{From: 0, To: 1, Step: 0, Elems: 1}})
	recBase := s.Records
	if failed := hammerKey(t, eng, key("succeeds"), lanes, func() (*fabric.Trace, error) { return tr, nil }); failed != 0 {
		t.Fatalf("%d lanes errored on a successful recording", failed)
	}
	s = eng.Stats()
	if s.MemoryHits != lanes-1 {
		t.Fatalf("successful entry counted %d memory hits, want %d (stats %+v)", s.MemoryHits, lanes-1, s)
	}
	if s.Records != recBase+1 {
		t.Fatalf("successful entry recorded %d times, want 1 (stats %+v)", s.Records-recBase, s)
	}

	// Re-requesting the resolved key serially still counts hits.
	if _, err := eng.cachedTraceKey(context.Background(), key("succeeds"), nil, func() (*fabric.Trace, error) {
		return nil, errors.New("must not re-record")
	}); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.MemoryHits != lanes {
		t.Fatalf("serial re-request counted %d memory hits, want %d", s.MemoryHits, lanes)
	}
}
