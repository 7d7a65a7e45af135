package harness

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"binetrees/internal/tracestore"
)

// renderSuite runs the full quick artifact suite through eng and returns its
// rendering.
func renderSuite(t *testing.T, eng *Engine, workers int) string {
	t.Helper()
	var sb strings.Builder
	if err := RunExperiment(context.Background(), &sb, "all", Options{Quick: true, Workers: workers, Engine: eng}); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return sb.String()
}

// openStore opens a trace store on dir; each call starts the disk counters
// afresh, as each process sharing the directory would.
func openStore(t *testing.T, dir string) *tracestore.Store {
	t.Helper()
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreEquivalenceMatrix pins the tentpole guarantee of the persistent
// store: the complete quick artifact suite renders byte-identically across
// {no store, cold store, warm store} × {Workers=1, Workers=NumCPU}, each
// variant a cold Engine. A cold run synthesizes every schedule — zero
// goroutine-fabric recordings — and a warm-store run loads everything from
// disk without even synthesizing (asserted via the Engine's counters).
func TestStoreEquivalenceMatrix(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	ref := &Engine{}
	reference := renderSuite(t, ref, 1)
	if s := ref.Stats(); s.SynthHits == 0 {
		t.Fatalf("baseline run synthesized nothing: %+v", s)
	} else if s.Records != 0 {
		t.Fatalf("baseline run fell back to the fabric %d times: %+v", s.Records, s)
	}

	type variant struct {
		name    string
		store   bool
		workers int
	}
	variants := []variant{
		{"no-store/parallel", false, runtime.NumCPU()},
		{"cold-store/serial", true, 1},
		{"warm-store/serial", true, 1},
		{"warm-store/parallel", true, runtime.NumCPU()},
	}
	for i, v := range variants {
		eng := &Engine{}
		if v.store {
			eng.Store = openStore(t, dir)
		}
		if out := renderSuite(t, eng, v.workers); out != reference {
			t.Fatalf("%s: rendering diverges from the no-store serial reference", v.name)
		}
		s := eng.Stats()
		warm := i >= 2 // the cold-store pass populated dir
		switch {
		case s.Records != 0:
			t.Fatalf("%s: %d goroutine-fabric recordings (want all-synthesized): %+v", v.name, s.Records, s)
		case !v.store && s.DiskHits+s.DiskSaves != 0:
			t.Fatalf("%s: disk activity without a store: %+v", v.name, s)
		case v.store && !warm && (s.SynthHits == 0 || s.DiskSaves == 0):
			t.Fatalf("%s: cold store did not synthesize and save: %+v", v.name, s)
		case warm && s.SynthHits != 0:
			t.Fatalf("%s: warm store still synthesized %d schedules: %+v", v.name, s.SynthHits, s)
		}
		if warm && s.DiskHits == 0 {
			t.Fatalf("%s: warm store served no hits: %+v", v.name, s)
		}
	}
}

// TestStoreCorruptionRecovered pins the degradation path: damaging every
// stored file turns the warm store cold — corrupt files are evicted,
// schedules re-synthesize and re-save — without changing a single artifact
// byte.
func TestStoreCorruptionRecovered(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	reference := renderSuite(t, &Engine{}, runtime.NumCPU())
	if out := renderSuite(t, &Engine{Store: openStore(t, dir)}, runtime.NumCPU()); out != reference {
		t.Fatal("cold store rendering diverges")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("store files %v err %v", files, err)
	}
	for i, f := range files {
		// Alternate damage modes: truncation and garbling.
		if i%2 == 0 {
			if err := os.Truncate(f, 5); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(f, []byte("BTRCgarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damaged := &Engine{Store: openStore(t, dir)}
	if out := renderSuite(t, damaged, runtime.NumCPU()); out != reference {
		t.Fatal("rendering diverges after store corruption")
	}
	s := damaged.Stats()
	if s.CorruptEvictions < uint64(len(files)) {
		t.Fatalf("only %d of %d corrupt files evicted: %+v", s.CorruptEvictions, len(files), s)
	}
	if s.SynthHits == 0 {
		t.Fatalf("corrupt store served traces without re-synthesizing: %+v", s)
	}
	// The re-saved store is warm again.
	recovered := &Engine{Store: openStore(t, dir)}
	if out := renderSuite(t, recovered, runtime.NumCPU()); out != reference {
		t.Fatal("rendering diverges after recovery")
	}
	if s := recovered.Stats(); s.SynthHits+s.Records != 0 {
		t.Fatalf("recovered store still resolving cold: %+v", s)
	}
}
