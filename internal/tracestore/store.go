// Package tracestore is a disk-backed, content-addressed store for recorded
// communication traces (fabric.Trace). A trace depends only on its schedule
// identity — (collective, algorithm, rank count, root), plus geometry for
// torus schedules — so the store keys each file by a hash of that identity
// together with the codec and schedule versions: repeated sweeps and CI runs
// load every schedule instead of re-executing it, and any change to the
// format or to an algorithm's schedule simply hashes to fresh addresses,
// leaving stale files unreferenced rather than wrongly reused (Prewarm then
// evicts the ones an older codec wrote, which no longer decode).
//
// The store is tolerant by design: a missing, truncated or garbled file is a
// miss (counted, and the corrupt file evicted) — callers re-record and
// re-save, so a damaged cache directory can never fail or corrupt a sweep.
package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"binetrees/internal/fabric"
	"binetrees/internal/obs"
)

// Store-tier metrics in the process-wide obs registry; the lifetime Stats
// counters below are a Store's own (what -v prints), these add bytes and
// latency under the /metrics vocabulary.
var (
	obsLoadHits = obs.Default.Counter("binebench_tracestore_loads_total",
		"Trace store lookups, by result.", "result", "hit")
	obsLoadMisses = obs.Default.Counter("binebench_tracestore_loads_total",
		"Trace store lookups, by result.", "result", "miss")
	obsLoadSeconds = obs.Default.Histogram("binebench_tracestore_load_seconds",
		"Trace store load latency (open, read, decode).", nil)
	obsLoadBytes = obs.Default.Counter("binebench_tracestore_load_bytes_total",
		"Encoded bytes read from the trace store on hits.")
	obsSaves = obs.Default.Counter("binebench_tracestore_saves_total",
		"Traces written through to the store.")
	obsSaveSeconds = obs.Default.Histogram("binebench_tracestore_save_seconds",
		"Trace store save latency (encode, chmod, rename).", nil)
	obsSaveBytes = obs.Default.Counter("binebench_tracestore_save_bytes_total",
		"Encoded bytes written to the trace store.")
	obsEvictions = obs.Default.Counter("binebench_tracestore_corrupt_evictions_total",
		"Store files that failed to decode and were removed.")
)

// Key is the schedule identity a stored trace is addressed by. Fields are
// hashed, not parsed back; they only need to uniquely name the schedule.
type Key struct {
	// Kind separates key namespaces (e.g. "flat", "torus").
	Kind string
	// Collective and Algo name the schedule.
	Collective, Algo string
	// Shape is the geometry: the rank count for flat schedules, the torus
	// dims (and recorded element count) for torus ones.
	Shape string
	// Root is the collective's root rank.
	Root int
	// SchedVersion tags the generation of the schedule constructions;
	// callers bump it when an algorithm's schedule changes so stale traces
	// are never reused.
	SchedVersion int
}

// addr returns the content address: a hash over every identity field and the
// codec version.
func (k Key) addr() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("codec=%d|sched=%d|kind=%s|coll=%s|algo=%s|shape=%s|root=%d",
		fabric.CodecVersion, k.SchedVersion, k.Kind, k.Collective, k.Algo, k.Shape, k.Root)))
	return hex.EncodeToString(h[:16])
}

// Origin records how a stored trace was produced: synthesized from schedule
// math or recorded on the goroutine fabric. It is stamped in a sidecar file
// next to the trace — never inside the encoded trace or its content address
// — so a trace whose sidecar is lost stays warm and simply reports
// OriginUnknown.
type Origin string

const (
	// OriginUnknown marks a trace with no (readable) sidecar.
	OriginUnknown Origin = ""
	// OriginRecorded marks a trace captured from a goroutine-fabric run.
	OriginRecorded Origin = "recorded"
	// OriginSynthesized marks a trace emitted by internal/synth.
	OriginSynthesized Origin = "synthesized"
)

// Stats are the store's lifetime counters.
type Stats struct {
	// Hits and Misses count Load outcomes (a corrupt file counts as a miss).
	Hits, Misses uint64
	// Saves counts successfully written traces.
	Saves uint64
	// CorruptEvictions counts files that failed to decode and were removed.
	CorruptEvictions uint64
	// SaveSkips counts saves dropped while the store was degraded.
	SaveSkips uint64
	// Degraded reports the store is serving read-only after an environmental
	// write failure (see degrade.go); DegradedReason is the triggering error.
	Degraded       bool
	DegradedReason string
}

// The store's only two permission modes. Directories are shared across
// users, service replicas and CI cache restores, so everything in them is
// world-readable; every mode-taking call in the package uses one of these
// (TestStoreSaveFileMode pins the result on disk).
const (
	fileMode = 0o644
	dirMode  = 0o755
)

// Store is a directory of encoded traces. The zero value is a disabled
// store: every Load misses, every Save is dropped. Methods are safe for
// concurrent use.
type Store struct {
	dir string

	hits, misses, saves, corrupt atomic.Uint64

	// Degraded read-only mode (degrade.go): flipped by environmental write
	// failures, cleared by a successful recovery probe.
	saveSkips      atomic.Uint64
	degraded       atomic.Bool
	degradedReason atomic.Value // string: the error that degraded the store
	lastProbe      atomic.Int64 // unixnano of the last recovery probe
	probeEvery     atomic.Int64 // nanoseconds between recovery probes
	faultHook      atomic.Pointer[func(FaultOp) error]
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracestore: empty directory")
	}
	if err := os.MkdirAll(dir, dirMode); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{dir: dir}
	s.probeEvery.Store(int64(5 * time.Second))
	return s, nil
}

// Enabled reports whether the store is backed by a directory.
func (s *Store) Enabled() bool { return s != nil && s.dir != "" }

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.addr()+".trace")
}

// originPath is the provenance sidecar next to a trace file. The ".origin"
// suffix keeps it invisible to Prewarm's ".trace" filter, so provenance
// rides along without changing the store format or the content addresses.
func originPath(tracePath string) string { return tracePath + ".origin" }

// statFile sizes and fingerprints an open store file for readTrace's read and
// eviction compare. A package variable so tests can force the no-fingerprint
// fallback, which is otherwise unreachable on a healthy filesystem.
var statFile = (*os.File).Stat

// maxTraceFileBytes caps the size of a file the store will read. The store
// directory is shared across users, replicas and CI cache restores, and a
// file is read into one buffer sized by its stat, so the stat is checked
// before anything is allocated — a 10 GB sparse file named like a trace must
// not cost 10 GB. 2 GiB is far above the largest file the registry writes at
// -full scale (3.6 MB, the largest of fig11b's Fugaku traces; each distinct
// step body is stored once), and keeps every decodable record count (≤ a
// third of the payload) inside the int32 class index.
const maxTraceFileBytes = 2 << 30

// readTrace opens, reads and decodes one store file. A path that names
// nothing, or cannot be opened, is absent (opened=false). One that is not a
// regular file, is oversized, unreadable or fails to decode (stale codec,
// truncation, corruption) comes back as a nil trace: it has been evicted —
// if the path still names the file that was read — and counted corrupt. size
// is the encoded length of a decoded trace.
func (s *Store) readTrace(path string) (tr *fabric.Trace, size int64, opened bool) {
	// The directory is shared, so look before opening: os.Open blocks forever
	// on a FIFO nobody writes to, and a symlink reads whatever it points at.
	li, err := os.Lstat(path)
	if err != nil {
		return nil, 0, false
	}
	if !li.Mode().IsRegular() {
		s.evict(path, nil)
		return nil, 0, true
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	fi, err := statFile(f)
	// Read the whole file into an exactly sized buffer and decode in place:
	// full-scale traces run to hundreds of megabytes, and a growing
	// io.ReadAll buffer would copy them several times over.
	var raw []byte
	switch {
	case err != nil:
		// No fingerprint: evict unconditionally. The capped read turns an
		// oversized file into a truncated one, which fails its checksum.
		fi = nil
		raw, err = io.ReadAll(io.LimitReader(f, maxTraceFileBytes))
	case fi.Size() > maxTraceFileBytes:
		err = fmt.Errorf("tracestore: %d-byte file is over the size cap", fi.Size())
	default:
		raw = make([]byte, fi.Size())
		_, err = io.ReadFull(f, raw)
	}
	f.Close()
	if err == nil {
		tr, err = fabric.DecodeTraceBytes(raw)
	}
	if err != nil {
		s.evict(path, fi)
		return nil, 0, true
	}
	return tr, int64(len(raw)), true
}

// Load returns the stored trace for the key, or ok=false on any miss: no
// file, or a file readTrace evicted so the slot is cleanly re-recorded and
// re-saved by the caller.
func (s *Store) Load(k Key) (tr *fabric.Trace, ok bool) {
	if !s.Enabled() {
		return nil, false
	}
	defer obsLoadSeconds.ObserveSince(time.Now())
	tr, size, _ := s.readTrace(s.path(k))
	if tr == nil {
		s.misses.Add(1)
		obsLoadMisses.Inc()
		return nil, false
	}
	s.hits.Add(1)
	obsLoadHits.Inc()
	obsLoadBytes.Add(uint64(size))
	return tr, true
}

// evict counts a damaged store file corrupt and removes it — but, given a
// fingerprint of the file that was actually read, only if the path still
// names that file: in a store shared across processes, a concurrent Save may
// have renamed a fresh valid trace into place. The stat-and-compare narrows
// that race to a vanishing window rather than eliminating it; losing the race
// merely deletes a trace the next run re-records and re-saves, never corrupts
// one. With no fingerprint (fi == nil: the stat failed, or the path named a
// FIFO, symlink or directory that was never opened) the removal is
// unconditional best-effort: leaving the entry in place would re-count it as
// corrupt on every future run.
func (s *Store) evict(path string, fi os.FileInfo) {
	s.corrupt.Add(1)
	obsEvictions.Inc()
	if fi != nil {
		cur, err := os.Stat(path)
		if err != nil || !os.SameFile(fi, cur) {
			return
		}
	}
	os.Remove(path)
	// The provenance sidecar describes the removed trace; an orphaned one
	// would mis-stamp whatever trace is re-saved under the address later.
	os.Remove(originPath(path))
}

// Save writes the trace under the key's content address, stamped with its
// origin. The trace write is atomic (temp file + rename), so concurrent
// savers and crashed runs leave either the complete trace or nothing; a
// Load can never observe a torn write as anything but a (self-evicting)
// corrupt file. The origin lands in a best-effort sidecar after the rename
// — provenance is advisory, never load-bearing, so a lost sidecar merely
// reads back as OriginUnknown.
// A degraded store (read-only dir, full disk — see degrade.go) skips the
// write entirely, counting it, and returns nil: the store is a regenerable
// cache tier, so an unwritable directory must never fail the caller. Each
// skip first gives the rate-limited recovery probe a chance to restore
// write-through mode.
func (s *Store) Save(k Key, tr *fabric.Trace, origin Origin) error {
	if !s.Enabled() {
		return nil
	}
	if s.degraded.Load() && !s.maybeProbe() {
		s.saveSkips.Add(1)
		obsSaveSkips.Inc()
		return nil
	}
	defer obsSaveSeconds.ObserveSince(time.Now())
	n, err := s.write(k, tr, origin)
	if err != nil {
		if degradingErr(err) {
			s.enterDegraded(err)
		}
		return err
	}
	s.saves.Add(1)
	obsSaves.Inc()
	obsSaveBytes.Add(uint64(n))
	return nil
}

// write performs Save's temp-file + rename sequence and returns the encoded
// byte count. Every step runs through the fault seam (degrade.go) so tests
// can fail any of them deterministically.
func (s *Store) write(k Key, tr *fabric.Trace, origin Origin) (int64, error) {
	var tmp *os.File
	if err := s.faulted(FaultCreateTemp, func() (err error) {
		tmp, err = os.CreateTemp(s.dir, "."+k.addr()+".tmp-*")
		return err
	}); err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	// One cleanup covers every failure below: whichever step fails, the temp
	// file must not outlive the call — a degraded shared directory must not
	// accumulate .tmp garbage on top of its real problem. The double Close
	// after a successful close is a harmless no-op error.
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	cw := &countingWriter{w: tmp}
	if err := s.faulted(FaultEncode, func() error { return fabric.EncodeTrace(cw, tr) }); err != nil {
		return 0, fmt.Errorf("tracestore: encoding %s: %w", k.addr(), err)
	}
	// CreateTemp opens the file 0600; a rename would carry that mode into
	// the store, so directories shared across users or service replicas
	// (and CI cache restores) would hold traces other readers cannot open.
	if err := s.faulted(FaultChmod, func() error { return tmp.Chmod(fileMode) }); err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	if err := s.faulted(FaultClose, tmp.Close); err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	if err := s.faulted(FaultRename, func() error { return os.Rename(tmp.Name(), s.path(k)) }); err != nil {
		return 0, fmt.Errorf("tracestore: %w", err)
	}
	committed = true
	if origin != OriginUnknown {
		_ = os.WriteFile(originPath(s.path(k)), []byte(origin), fileMode)
	}
	return cw.n, nil
}

// countingWriter counts the encoded bytes flowing into a Save's temp file
// so the byte-volume counter reports real I/O, not an extra encode pass.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Origin reports how the stored trace for the key was produced:
// OriginSynthesized or OriginRecorded from its sidecar, OriginUnknown when
// no (or an unrecognized) sidecar exists.
func (s *Store) Origin(k Key) Origin {
	if !s.Enabled() {
		return OriginUnknown
	}
	raw, err := os.ReadFile(originPath(s.path(k)))
	if err != nil {
		return OriginUnknown
	}
	switch o := Origin(strings.TrimSpace(string(raw))); o {
	case OriginRecorded, OriginSynthesized:
		return o
	}
	return OriginUnknown
}

// PrewarmStats summarizes one Prewarm pass over the store directory.
type PrewarmStats struct {
	// Files counts the trace files examined; Valid the ones that decoded
	// cleanly; Corrupt the ones that failed to decode and were evicted.
	Files, Valid, Corrupt int
	// FileBytes totals the encoded size of the valid files. MemBytes totals
	// their decoded columnar footprint (fabric.Trace.MemBytes) — what a
	// process resident-caching every stored trace would grow to.
	FileBytes, MemBytes int64
}

func (ps PrewarmStats) String() string {
	return fmt.Sprintf("trace store prewarm: %d files, %d valid (%.1f MiB encoded, %.1f MiB columnar), %d corrupt evicted",
		ps.Files, ps.Valid, float64(ps.FileBytes)/(1<<20), float64(ps.MemBytes)/(1<<20), ps.Corrupt)
}

// Prewarm decode-validates every trace file in the store directory: valid
// files are read in full (paging them into the OS cache so the first
// request-time Load runs warm) and undecodable ones are evicted, so a
// long-running server starts against a shared cache directory in a
// known-good state instead of discovering damage one request at a time.
// Temp files of in-flight Saves are not matched. Corrupt evictions count
// into the store's lifetime Stats; hit/miss counters are untouched.
func (s *Store) Prewarm() (PrewarmStats, error) {
	var ps PrewarmStats
	if !s.Enabled() {
		return ps, nil
	}
	// ReadDir, not filepath.Glob: a store path containing glob
	// metacharacters ('[', '?', '*') would corrupt the pattern.
	var entries []os.DirEntry
	if err := s.faulted(FaultReadDir, func() (err error) {
		entries, err = os.ReadDir(s.dir)
		return err
	}); err != nil {
		// An unreadable directory is the same environmental class as an
		// unwritable one: degrade instead of rediscovering the failure on
		// every write-behind save.
		if degradingErr(err) {
			s.enterDegraded(err)
		}
		return ps, fmt.Errorf("tracestore: %w", err)
	}
	for _, entry := range entries {
		if entry.IsDir() || !strings.HasSuffix(entry.Name(), ".trace") {
			continue
		}
		tr, size, opened := s.readTrace(filepath.Join(s.dir, entry.Name()))
		if !opened {
			continue // vanished under a concurrent eviction: nothing to validate
		}
		ps.Files++
		if tr == nil {
			ps.Corrupt++
			continue
		}
		ps.Valid++
		ps.FileBytes += size
		ps.MemBytes += tr.MemBytes()
	}
	return ps, nil
}

// Stats snapshots the lifetime counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	degraded, reason := s.Degraded()
	return Stats{
		Hits:             s.hits.Load(),
		Misses:           s.misses.Load(),
		Saves:            s.saves.Load(),
		CorruptEvictions: s.corrupt.Load(),
		SaveSkips:        s.saveSkips.Load(),
		Degraded:         degraded,
		DegradedReason:   reason,
	}
}
