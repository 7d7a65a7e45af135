package tracestore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"binetrees/internal/fabric"
)

func testTrace(p, seed int) *fabric.Trace {
	var recs []fabric.Record
	for i := 0; i < 10+seed; i++ {
		recs = append(recs, fabric.Record{
			From: i % p, To: (i + 1 + seed) % p, Step: i / 3, Elems: 1 + i*seed,
		})
	}
	return fabric.NewTrace(p, recs)
}

func testKey(algo string, p int) Key {
	return Key{Kind: "flat", Collective: "allreduce", Algo: algo, Shape: "16", Root: 0, SchedVersion: p}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey("ring", 1), testKey("swing", 1)
	t1, t2 := testTrace(8, 1), testTrace(16, 2)
	if _, ok := s.Load(k1); ok {
		t.Fatal("empty store hit")
	}
	if err := s.Save(k1, t1, OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(k2, t2, OriginRecorded); err != nil {
		t.Fatal(err)
	}
	got1, ok1 := s.Load(k1)
	got2, ok2 := s.Load(k2)
	if !ok1 || !ok2 {
		t.Fatal("saved traces not found")
	}
	if !reflect.DeepEqual(got1, t1) || !reflect.DeepEqual(got2, t2) {
		t.Fatal("loaded traces differ from saved ones")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Saves != 2 || st.CorruptEvictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreKeyIdentity(t *testing.T) {
	// Every identity field — including the schedule version — must change
	// the content address.
	base := Key{Kind: "flat", Collective: "allreduce", Algo: "ring", Shape: "16", Root: 0, SchedVersion: 1}
	variants := []Key{
		{Kind: "torus", Collective: "allreduce", Algo: "ring", Shape: "16", Root: 0, SchedVersion: 1},
		{Kind: "flat", Collective: "bcast", Algo: "ring", Shape: "16", Root: 0, SchedVersion: 1},
		{Kind: "flat", Collective: "allreduce", Algo: "swing", Shape: "16", Root: 0, SchedVersion: 1},
		{Kind: "flat", Collective: "allreduce", Algo: "ring", Shape: "32", Root: 0, SchedVersion: 1},
		{Kind: "flat", Collective: "allreduce", Algo: "ring", Shape: "16", Root: 1, SchedVersion: 1},
		{Kind: "flat", Collective: "allreduce", Algo: "ring", Shape: "16", Root: 0, SchedVersion: 2},
	}
	seen := map[string]bool{base.addr(): true}
	for i, k := range variants {
		if seen[k.addr()] {
			t.Fatalf("variant %d collides: %+v", i, k)
		}
		seen[k.addr()] = true
	}
	if base.addr() != (Key{Kind: "flat", Collective: "allreduce", Algo: "ring", Shape: "16", SchedVersion: 1}).addr() {
		t.Fatal("identical keys hash differently")
	}
}

func TestStoreEvictsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("ring", 1)
	if err := s.Save(k, testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files %v err %v", files, err)
	}
	// Truncate the stored file mid-payload: Load must treat it as a miss
	// and remove it so the slot can be re-recorded.
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); ok {
		t.Fatal("corrupt file loaded")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt file not evicted")
	}
	st := s.Stats()
	if st.CorruptEvictions != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The slot re-saves and loads cleanly afterwards.
	if err := s.Save(k, testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); !ok {
		t.Fatal("re-saved trace not found")
	}
}

// TestStoreEvictsCorruptFileWithoutFingerprint is the regression test for
// the silent non-eviction bug: when the open-time Stat fails there is no
// fingerprint to compare, and Load used to leave the garbled file in place —
// re-read and re-counted as corrupt on every future run. It must now fall
// back to a best-effort unconditional remove.
func TestStoreEvictsCorruptFileWithoutFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("ring", 1)
	if err := s.Save(k, testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files %v err %v", files, err)
	}
	if err := os.WriteFile(files[0], []byte("BTRCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	orig := statFile
	statFile = func(*os.File) (os.FileInfo, error) { return nil, errors.New("stat disabled") }
	defer func() { statFile = orig }()
	if _, ok := s.Load(k); ok {
		t.Fatal("corrupt file loaded")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatal("corrupt file not evicted when Stat failed")
	}
	if st := s.Stats(); st.CorruptEvictions != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// A healthy file still loads through the ReadAll fallback path.
	if err := s.Save(k, testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(k); !ok {
		t.Fatal("valid trace not loaded without a fingerprint")
	}
}

// TestStoreSaveFileMode pins the modes Save leaves on disk — the trace
// (CreateTemp's 0600 must not survive the rename) and its provenance
// sidecar — or store directories shared across users and service replicas
// hold files other readers cannot open.
func TestStoreSaveFileMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(testKey("ring", 1), testTrace(8, 1), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files %v err %v", files, err)
	}
	for _, path := range []string{files[0], originPath(files[0])} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Fatalf("%s: mode %o, want 644", filepath.Base(path), got)
		}
	}
}

// TestStoreLoadEvictSaveRace hammers the Load-evicts / Save-renames window
// of a shared store directory: one goroutine garbles the key's file directly
// and Loads (triggering evictions), another Saves the valid trace and Loads.
// The invariants — every successful Load yields the valid trace, and once
// the corrupter stops a single Save always makes the key loadable (no valid
// trace is ever lost to a stale eviction) — must hold with -race clean.
func TestStoreLoadEvictSaveRace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("ring", 1)
	valid := testTrace(8, 1)
	path := s.path(k)
	const iters = 300
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2*iters)
	go func() { // corrupter
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := os.WriteFile(path, []byte("BTRCgarbage"), 0o644); err != nil {
				errc <- err
				return
			}
			if tr, ok := s.Load(k); ok && !reflect.DeepEqual(tr, valid) {
				errc <- errors.New("Load returned a trace that is neither valid nor a miss")
				return
			}
		}
	}()
	go func() { // saver
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := s.Save(k, valid, OriginRecorded); err != nil {
				errc <- err
				return
			}
			if tr, ok := s.Load(k); ok && !reflect.DeepEqual(tr, valid) {
				errc <- errors.New("Load returned a garbled trace")
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Quiescent recovery: with the corrupter gone, one Save must stick.
	if err := s.Save(k, valid, OriginRecorded); err != nil {
		t.Fatal(err)
	}
	tr, ok := s.Load(k)
	if !ok || !reflect.DeepEqual(tr, valid) {
		t.Fatal("valid trace lost after the race settled")
	}
}

// TestStorePrewarm covers the startup validation pass: valid files are
// counted with their encoded and columnar sizes, corrupt ones are evicted,
// and in-flight temp files are ignored.
func TestStorePrewarm(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := testTrace(8, 1), testTrace(16, 2)
	if err := s.Save(testKey("ring", 1), t1, OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(testKey("swing", 1), t2, OriginRecorded); err != nil {
		t.Fatal(err)
	}
	badKey := testKey("bruck", 1)
	if err := s.Save(badKey, testTrace(8, 3), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(badKey), []byte("BTRCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".abc.tmp-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := s.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if ps.Files != 3 || ps.Valid != 2 || ps.Corrupt != 1 {
		t.Fatalf("prewarm stats %+v", ps)
	}
	if ps.FileBytes <= 0 || ps.MemBytes != t1.MemBytes()+t2.MemBytes() {
		t.Fatalf("prewarm sizes %+v (want MemBytes %d)", ps, t1.MemBytes()+t2.MemBytes())
	}
	if _, err := os.Stat(s.path(badKey)); !os.IsNotExist(err) {
		t.Fatal("prewarm did not evict the corrupt file")
	}
	if st := s.Stats(); st.CorruptEvictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The two valid traces still load.
	if _, ok := s.Load(testKey("ring", 1)); !ok {
		t.Fatal("valid trace missing after prewarm")
	}
	// A disabled store prewarms to nothing.
	var disabled *Store
	if ps, err := disabled.Prewarm(); err != nil || ps != (PrewarmStats{}) {
		t.Fatalf("disabled prewarm %+v err %v", ps, err)
	}
}

func TestDisabledStore(t *testing.T) {
	// nil and zero stores are inert: misses and dropped saves, no errors.
	for _, s := range []*Store{nil, {}} {
		if s.Enabled() {
			t.Fatal("disabled store claims enabled")
		}
		if _, ok := s.Load(testKey("ring", 1)); ok {
			t.Fatal("disabled store hit")
		}
		if err := s.Save(testKey("ring", 1), testTrace(8, 1), OriginRecorded); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st != (Stats{}) {
			t.Fatalf("stats %+v", st)
		}
	}
}

// TestStoreOriginSidecar covers provenance stamping: origins round-trip
// through the sidecar, eviction removes the sidecar with the trace, and a
// garbled sidecar degrades to OriginUnknown without touching the trace.
func TestStoreOriginSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kSynth, kRec := testKey("ring", 1), testKey("swing", 1)
	if err := s.Save(kSynth, testTrace(8, 1), OriginSynthesized); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(kRec, testTrace(8, 2), OriginRecorded); err != nil {
		t.Fatal(err)
	}
	if got := s.Origin(kSynth); got != OriginSynthesized {
		t.Fatalf("origin %q, want synthesized", got)
	}
	if got := s.Origin(kRec); got != OriginRecorded {
		t.Fatalf("origin %q, want recorded", got)
	}
	// Corrupting the trace evicts the sidecar along with it: the slot's
	// next save must not inherit stale provenance.
	if err := os.WriteFile(s.path(kSynth), []byte("BTRCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(kSynth); ok {
		t.Fatal("corrupt file loaded")
	}
	if _, err := os.Stat(originPath(s.path(kSynth))); !os.IsNotExist(err) {
		t.Fatal("sidecar survived its trace's eviction")
	}
	if got := s.Origin(kSynth); got != OriginUnknown {
		t.Fatalf("evicted slot reports origin %q", got)
	}
	// A garbled sidecar is advisory damage only: the trace still loads, the
	// origin reads unknown.
	if err := os.WriteFile(originPath(s.path(kRec)), []byte("teleported"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(kRec); !ok {
		t.Fatal("trace with a garbled sidecar did not load")
	}
	if got := s.Origin(kRec); got != OriginUnknown {
		t.Fatalf("garbled sidecar reports origin %q", got)
	}
}

// TestStoreOldCodecIsColdThenEvicted is the codec-bump gate: a file the
// retired v1 codec wrote (valid magic and checksum, version 1) is never
// decoded by guesswork. Content addresses fold the codec version, so such a
// file is normally never asked for; planted under a live address it is a miss
// that evicts itself, Prewarm counts it corrupt, and the slot re-saves and
// round-trips.
func TestStoreOldCodecIsColdThenEvicted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// v1 framing of a one-record trace: version, p, n, then per record
	// Δstep, Δfrom, Δto, sub, elems.
	payload := []byte{1, 2, 1, 0, 0, 2, 0, 1}
	v1 := append([]byte("BTRC"), payload...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(payload))
	k, k2 := testKey("ring", 1), testKey("swing", 1)
	for _, key := range []Key{k, k2} {
		if err := os.WriteFile(s.path(key), v1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Load(k); ok {
		t.Fatal("v1 file loaded")
	}
	if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
		t.Fatal("v1 file not evicted by Load")
	}
	ps, err := s.Prewarm()
	if err != nil || ps.Files != 1 || ps.Valid != 0 || ps.Corrupt != 1 {
		t.Fatalf("prewarm %+v err %v", ps, err)
	}
	if _, err := os.Stat(s.path(k2)); !os.IsNotExist(err) {
		t.Fatal("v1 file not evicted by Prewarm")
	}
	if st := s.Stats(); st.CorruptEvictions != 2 || st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v", st)
	}
	tr := testTrace(8, 1)
	if err := s.Save(k, tr, OriginSynthesized); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Load(k); !ok || !reflect.DeepEqual(got, tr) {
		t.Fatal("re-saved slot does not round-trip")
	}
}

// TestStoreRefusesOversizedFile pins the size check: a sparse file just over
// the cap, named like a trace, is evicted as corrupt by both readers without
// being read — nothing is allocated for it.
func TestStoreRefusesOversizedFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("ring", 1)
	plant := func() {
		t.Helper()
		f, err := os.Create(s.path(k))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Truncate(maxTraceFileBytes + 1); err != nil {
			t.Skipf("cannot create a sparse file here: %v", err)
		}
	}
	readers := map[string]func(){
		"Load": func() {
			if _, ok := s.Load(k); ok {
				t.Error("oversized file loaded")
			}
		},
		"Prewarm": func() {
			if ps, err := s.Prewarm(); err != nil || ps.Files != 1 || ps.Corrupt != 1 {
				t.Errorf("prewarm %+v err %v", ps, err)
			}
		},
	}
	for name, read := range readers {
		plant()
		before := s.Stats().CorruptEvictions
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		read()
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a file it must not read", name, got)
		}
		if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
			t.Errorf("%s: oversized file not evicted", name)
		}
		if got := s.Stats().CorruptEvictions - before; got != 1 {
			t.Errorf("%s: %d corrupt evictions, want 1", name, got)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
