package harness

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"binetrees/internal/fabric"
	"binetrees/internal/tracestore"
)

// countTraceFiles counts the ".trace" files in dir, ignoring provenance
// sidecars and temp files.
func countTraceFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".trace") {
			n++
		}
	}
	return n
}

// TestFailedRecordingNeverCachedOrStored injects a timeout mid-recording
// and pins the eviction guarantee: a timed-out (hence partial) trace is
// written neither to the tracestore nor to the in-process cache — the
// failed key re-records on the next request and only the successful
// recording is persisted. Synthesis is off (DisableSynth) because this
// test is about the fabric leg of the resolver chain.
func TestFailedRecordingNeverCachedOrStored(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st := openStore(t, dir)
	eng := &Engine{Store: st, DisableSynth: true}
	attempts := 0
	record := func() (*fabric.Trace, error) {
		attempts++
		f := fabric.NewMem(2)
		defer f.Close()
		if attempts == 1 {
			// Starve the first attempt: the sender never sends, so the
			// receiver's watchdog expires mid-schedule however late either
			// goroutine is scheduled.
			f.SetTimeout(time.Millisecond)
		}
		rec := fabric.NewRecorder(f)
		err := fabric.Run(rec, func(c fabric.Comm) error {
			if c.Rank() == 0 {
				if attempts == 1 {
					return nil
				}
				return c.Send(1, 0, 0, []int32{1})
			}
			return c.Recv(0, 0, 0, make([]int32, 1))
		})
		if err != nil {
			return nil, err
		}
		return rec.Trace(), nil
	}
	key := tracestore.Key{Kind: "test-evict", Algo: "x", Shape: "p=2", SchedVersion: schedVersion}
	if _, err := eng.cachedTraceKey(context.Background(), key, nil, record); !errors.Is(err, fabric.ErrTimeout) {
		t.Fatalf("first attempt: got %v, want timeout", err)
	}
	if n := countTraceFiles(t, dir); n != 0 {
		t.Fatalf("failed recording reached the store: %d files", n)
	}
	tr, err := eng.cachedTraceKey(context.Background(), key, nil, record)
	if err != nil {
		t.Fatalf("retry after eviction: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("failed key served from cache: %d attempts, want 2", attempts)
	}
	if tr.Messages() != 1 {
		t.Fatalf("retry recorded %d messages, want 1", tr.Messages())
	}
	if n := countTraceFiles(t, dir); n != 1 {
		t.Fatalf("successful retry not persisted: %d files", n)
	}
	// The successful recording is cached normally: a third request must
	// not record again — and its stored trace is stamped as recorded.
	if _, err := eng.cachedTraceKey(context.Background(), key, nil, record); err != nil || attempts != 2 {
		t.Fatalf("cached success re-recorded: attempts=%d err=%v", attempts, err)
	}
	if o := st.Origin(key); o != tracestore.OriginRecorded {
		t.Fatalf("fabric-recorded trace stamped %q", o)
	}
}
