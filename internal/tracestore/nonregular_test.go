//go:build unix

package tracestore

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"binetrees/internal/fabric"
)

// within fails the test if fn has not returned after 2 s — the symptom of
// opening a FIFO nobody writes to.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still blocked after 2 s", what)
	}
}

// TestStoreNonRegularEntries plants what a shared directory can hold besides
// trace files — a FIFO, a symlink loop, a symlink to a directory, a directory
// — under trace names, next to one valid trace. Neither reader may open any
// of them: Prewarm returns, evicts the three it could have followed or
// blocked on (a directory is skipped) and validates the one trace; a Load
// whose address is a FIFO is a corrupt-file miss the next Save repairs.
func TestStoreNonRegularEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	valid, k := testKey("ring", 1), testKey("swing", 1)
	if err := s.Save(valid, testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	in := func(name string) string { return filepath.Join(dir, name) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(syscall.Mkfifo(s.path(k), 0o644))
	must(os.Symlink("a.trace", in("a.trace")))
	must(os.Mkdir(in("sub"), 0o755))
	must(os.Symlink("sub", in("d.trace")))
	must(os.Mkdir(in("x.trace"), 0o755))

	var ps PrewarmStats
	within(t, "Prewarm", func() { ps, err = s.Prewarm() })
	if err != nil || ps.Files != 4 || ps.Valid != 1 || ps.Corrupt != 3 {
		t.Fatalf("prewarm %+v err %v, want 4 files: 1 valid, 3 corrupt", ps, err)
	}
	for _, gone := range []string{s.path(k), in("a.trace"), in("d.trace")} {
		if _, err := os.Lstat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived prewarm (lstat err %v)", filepath.Base(gone), err)
		}
	}
	for _, kept := range []string{"sub", "x.trace"} {
		if fi, err := os.Lstat(in(kept)); err != nil || !fi.IsDir() {
			t.Errorf("directory %s did not survive prewarm: %v", kept, err)
		}
	}

	must(syscall.Mkfifo(s.path(k), 0o644))
	before := s.Stats()
	var ok bool
	within(t, "Load at a FIFO", func() { _, ok = s.Load(k) })
	if st := s.Stats(); ok || st.Misses != before.Misses+1 || st.CorruptEvictions != before.CorruptEvictions+1 {
		t.Fatalf("Load at a FIFO: ok=%v, stats %+v → %+v, want one miss and one corrupt eviction", ok, before, st)
	}
	want := testTrace(16, 2)
	must(s.Save(k, want, OriginRecorded))
	var got *fabric.Trace
	within(t, "Load after Save", func() { got, ok = s.Load(k) })
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("Save over an evicted FIFO did not turn the miss into a hit")
	}
	if _, ok := s.Load(valid); !ok {
		t.Fatal("the valid trace stopped loading")
	}
}
