// Degraded read-only mode. The store is a write-behind cache tier: every
// byte it holds can be regenerated from schedule math or a fabric recording,
// so when the directory stops accepting writes — mounted read-only, disk
// full, permissions yanked — the correct response is to stop writing, not to
// stop serving. A Save or Prewarm failure whose cause is one of those
// environmental classes flips the store into degraded mode: subsequent saves
// are skipped (counted, not errored), a gauge and Stats flag the state,
// and a rate-limited probe — run by the next Save or state read — rewrites a
// scratch file until the directory recovers, at which point saves resume on
// their own.
//
// The fault hook is the deterministic test seam: permission failures are
// hard to stage for real (root ignores permission bits entirely), so tests
// inject the exact errno class per filesystem step instead.

package tracestore

import (
	"errors"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"binetrees/internal/obs"
)

var (
	obsDegraded = obs.Default.Gauge("binebench_tracestore_degraded",
		"1 while the store is in degraded read-only mode (writes skipped).")
	obsSaveSkips = obs.Default.Counter("binebench_tracestore_save_skips_total",
		"Saves dropped because the store was in degraded read-only mode.")
)

// FaultOp names one filesystem step of the store's write path; the fault
// hook intercepts steps by op to force a failure class deterministically.
type FaultOp string

const (
	FaultCreateTemp FaultOp = "create-temp" // Save: temp-file creation
	FaultEncode     FaultOp = "encode"      // Save: trace encode into the temp file
	FaultChmod      FaultOp = "chmod"       // Save: world-readable chmod
	FaultClose      FaultOp = "close"       // Save: temp-file close (write-back flush)
	FaultRename     FaultOp = "rename"      // Save: atomic rename into place
	FaultReadDir    FaultOp = "read-dir"    // Prewarm: store directory listing
	FaultProbe      FaultOp = "probe"       // recovery probe write cycle
)

// SetFaultHook installs (or, with nil, removes) a test-only hook consulted
// before each of this store's filesystem steps: a non-nil return replaces
// the step's real execution with that error. Serving code never sets it.
func (s *Store) SetFaultHook(fn func(FaultOp) error) {
	if fn == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&fn)
}

// faulted runs fn, unless the injected hook fails the op first.
func (s *Store) faulted(op FaultOp, fn func() error) error {
	if hook := s.faultHook.Load(); hook != nil {
		if err := (*hook)(op); err != nil {
			return err
		}
	}
	return fn()
}

// degradingErr classifies failures that indicate the directory — not the
// individual write — is broken: read-only filesystem, no space or quota,
// permission denied. Anything else (a bad trace, a vanished temp file) stays
// a per-call error and does not flip the store.
func degradingErr(err error) bool {
	return errors.Is(err, fs.ErrPermission) ||
		errors.Is(err, syscall.EROFS) ||
		errors.Is(err, syscall.EACCES) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT)
}

// Degraded reports whether the store is in degraded read-only mode, and the
// cause that put it there. A degraded store first gets its rate-limited
// recovery probe, so what Stats reads clears within one probe
// interval of the directory healing, with no Save needed to notice — a
// server whose every schedule is resident never saves again.
func (s *Store) Degraded() (bool, string) {
	if s == nil || !s.degraded.Load() || s.maybeProbe() {
		return false, ""
	}
	reason, _ := s.degradedReason.Load().(string)
	return true, reason
}

// SetProbeInterval tunes how often a degraded store re-checks the directory
// for writability (default 5s). Tests drop it to zero so the probe runs on
// the next Save or Degraded call.
func (s *Store) SetProbeInterval(d time.Duration) { s.probeEvery.Store(int64(d)) }

// enterDegraded flips the store read-only, once: repeated failures while
// already degraded update nothing and log nothing. The first recovery probe
// is due one probe interval later.
func (s *Store) enterDegraded(cause error) {
	s.degradedReason.Store(cause.Error())
	if s.degraded.CompareAndSwap(false, true) {
		s.lastProbe.Store(time.Now().UnixNano())
		obsDegraded.Set(1)
		log.Printf("tracestore: %s: entering degraded read-only mode (%v); serving continues from memory/synthesis, probing for recovery every %s",
			s.dir, cause, time.Duration(s.probeEvery.Load()))
	}
}

// exitDegraded restores write-through mode, once.
func (s *Store) exitDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		obsDegraded.Set(0)
		log.Printf("tracestore: %s: directory writable again, leaving degraded mode", s.dir)
	}
}

// maybeProbe rate-limits recovery probes of a degraded store and reports
// whether the directory just recovered. At most one caller per interval runs
// the probe; everyone else keeps skipping saves.
func (s *Store) maybeProbe() bool {
	now := time.Now().UnixNano()
	last := s.lastProbe.Load()
	if now-last < s.probeEvery.Load() {
		return false
	}
	if !s.lastProbe.CompareAndSwap(last, now) {
		return false
	}
	if err := s.probe(); err != nil {
		return false
	}
	s.exitDegraded()
	return true
}

// probe exercises the full Save write cycle on a scratch name — create,
// write, chmod, close, rename — so recovery is only declared when the exact
// operations a Save needs all work again.
func (s *Store) probe() error {
	return s.faulted(FaultProbe, func() error {
		tmp, err := os.CreateTemp(s.dir, ".probe-*")
		if err != nil {
			return err
		}
		defer func() { os.Remove(tmp.Name()) }()
		if _, err := tmp.WriteString("probe"); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Chmod(fileMode); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		dst := filepath.Join(s.dir, ".probe")
		if err := os.Rename(tmp.Name(), dst); err != nil {
			return err
		}
		return os.Remove(dst)
	})
}
