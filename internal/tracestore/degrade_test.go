package tracestore

import (
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// failOps returns a fault hook failing each listed op with its error;
// unlisted ops run for real. The hook lives on the store under test, so it
// needs no cleanup and cannot leak into a test running alongside; the table
// can be mutated mid-test to stage failure-then-recovery sequences.
func failOps(faults map[FaultOp]error) func(FaultOp) error {
	return func(op FaultOp) error { return faults[op] }
}

// tmpFiles lists leftover temp files in the store dir — Save failures must
// never leave any behind.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") || strings.Contains(e.Name(), ".probe-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestSaveFailureRemovesTempFile is the regression pin for the temp-file
// leak: whichever step of the Save sequence fails — encode, chmod, close or
// rename — the .tmp file is removed, so a misbehaving shared directory does
// not accumulate garbage on top of its real problem.
func TestSaveFailureRemovesTempFile(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	for _, op := range []FaultOp{FaultEncode, FaultChmod, FaultClose, FaultRename} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			s.SetFaultHook(failOps(map[FaultOp]error{op: boom}))
			if err := s.Save(testKey("leak", 1), testTrace(4, 1), OriginRecorded); !errors.Is(err, boom) {
				t.Fatalf("Save with %s fault = %v, want boom", op, err)
			}
			if tmps := tmpFiles(t, dir); len(tmps) != 0 {
				t.Fatalf("Save with %s fault left temp files behind: %v", op, tmps)
			}
			// A generic failure is not environmental: the store must not
			// degrade over one bad write.
			if degraded, _ := s.Degraded(); degraded {
				t.Fatalf("store degraded on a generic %s error", op)
			}
		})
	}
}

// TestDegradedModeRoundTrip drives the full degradation lifecycle with
// injected faults: an EROFS save flips the store read-only (reads keep
// working, saves skip and count), and once the directory recovers the probe
// restores write-through mode on the next save.
func TestDegradedModeRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetProbeInterval(0) // probe on every degraded save: the test controls recovery via the fault table
	k, tr := testKey("degrade", 1), testTrace(4, 1)
	if err := s.Save(k, tr, OriginSynthesized); err != nil {
		t.Fatal(err)
	}

	// The directory "goes read-only": every write-path op fails with EROFS,
	// including the recovery probe.
	rofs := &os.PathError{Op: "open", Path: dir, Err: syscall.EROFS}
	faults := map[FaultOp]error{FaultCreateTemp: rofs, FaultProbe: rofs}
	s.SetFaultHook(failOps(faults))

	k2 := testKey("degrade", 2)
	if err := s.Save(k2, tr, OriginSynthesized); err == nil {
		t.Fatal("Save on a read-only dir returned nil before degrading")
	}
	degraded, reason := s.Degraded()
	if !degraded || !strings.Contains(reason, "read-only") {
		t.Fatalf("after EROFS save: degraded=%v reason=%q", degraded, reason)
	}

	// Degraded saves skip silently: no error, no file, counted.
	if err := s.Save(k2, tr, OriginSynthesized); err != nil {
		t.Fatalf("degraded Save = %v, want nil (skip)", err)
	}
	if _, ok := s.Load(k2); ok {
		t.Fatal("skipped save produced a file")
	}
	st := s.Stats()
	if !st.Degraded || st.SaveSkips == 0 || st.DegradedReason == "" {
		t.Fatalf("degraded stats: %+v", st)
	}
	// Reads are untouched: the pre-failure trace still loads.
	if _, ok := s.Load(k); !ok {
		t.Fatal("degraded store lost read access to an existing trace")
	}

	// The directory recovers; the next save probes, exits degraded mode, and
	// writes through again.
	delete(faults, FaultCreateTemp)
	delete(faults, FaultProbe)
	if err := s.Save(k2, tr, OriginSynthesized); err != nil {
		t.Fatalf("post-recovery Save = %v", err)
	}
	if degraded, _ := s.Degraded(); degraded {
		t.Fatal("store still degraded after a successful probe")
	}
	if _, ok := s.Load(k2); !ok {
		t.Fatal("post-recovery save did not land")
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("probe left scratch files behind: %v", tmps)
	}
	if st := s.Stats(); st.Degraded || st.DegradedReason != "" {
		t.Fatalf("recovered stats still report degradation: %+v", st)
	}
}

// TestDegradedClearsWithoutSave: a store that has every trace it needs never
// saves again, so the recovery probe must also run when the state is read.
// Once the directory heals, Stats stops reporting degradation within one
// probe interval, with no Save in between.
func TestDegradedClearsWithoutSave(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 20 * time.Millisecond
	s.SetProbeInterval(interval)
	enospc := &os.PathError{Op: "write", Path: dir, Err: syscall.ENOSPC}
	s.SetFaultHook(failOps(map[FaultOp]error{FaultCreateTemp: enospc, FaultProbe: enospc}))
	if err := s.Save(testKey("heal", 1), testTrace(4, 1), OriginSynthesized); err == nil {
		t.Fatal("Save on a full disk returned nil before degrading")
	}
	if st := s.Stats(); !st.Degraded {
		t.Fatalf("store not degraded while the probe still fails: %+v", st)
	}
	s.SetFaultHook(nil)
	time.Sleep(interval)
	if st := s.Stats(); st.Degraded || st.Saves != 0 {
		t.Fatalf("one probe interval after the disk healed, with no Save: %+v", st)
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("probe left scratch files behind: %v", tmps)
	}
}

// TestPrewarmDegradesOnPermissionFailure: an unreadable store directory is
// the same environmental class as an unwritable one — Prewarm reports the
// error and flips the store degraded instead of letting every later
// write-behind save rediscover it.
func TestPrewarmDegradesOnPermissionFailure(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(failOps(map[FaultOp]error{
		FaultReadDir: &os.PathError{Op: "open", Path: s.dir, Err: syscall.EACCES},
	}))
	if _, err := s.Prewarm(); err == nil {
		t.Fatal("Prewarm on an unreadable dir returned nil")
	}
	if degraded, reason := s.Degraded(); !degraded || reason == "" {
		t.Fatalf("store not degraded after EACCES prewarm: %v %q", degraded, reason)
	}
}

// TestDegradingErrClassification pins which failures flip the store: the
// environmental classes do, generic I/O noise does not.
func TestDegradingErrClassification(t *testing.T) {
	for _, err := range []error{syscall.EROFS, syscall.EACCES, syscall.ENOSPC, syscall.EDQUOT, os.ErrPermission} {
		if !degradingErr(&os.PathError{Op: "open", Path: "x", Err: err}) {
			t.Errorf("degradingErr(%v) = false, want true", err)
		}
	}
	for _, err := range []error{errors.New("boom"), syscall.EIO, os.ErrNotExist} {
		if degradingErr(err) {
			t.Errorf("degradingErr(%v) = true, want false", err)
		}
	}
}
