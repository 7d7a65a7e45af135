package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/pool"
)

// TestTraceCacheConcurrent hammers the flat and torus caches from many
// workers (run under -race in CI): every key must record exactly one trace
// and every caller must observe the same pointer.
func TestTraceCacheConcurrent(t *testing.T) {
	t.Parallel()
	eng := &Engine{}
	algos := coll.ByCollective(coll.Registry(), coll.CAllreduce)
	if len(algos) < 3 {
		t.Fatalf("only %d allreduce algorithms", len(algos))
	}
	algos = algos[:3]
	tor := core.MustTorus(2, 2, 2)
	ta := torusAlgos()[0]
	const lanes = 24
	flat := make([][]*trPtr, lanes)
	runner := pool.NewRunner(8)
	defer runner.Close()
	err := runner.ForEach(lanes, func(i int) error {
		algo := algos[i%len(algos)]
		tr, err := eng.cachedTrace(context.Background(), algo, 16, 0)
		if err != nil {
			return err
		}
		ttr, err := eng.cachedTorusTrace(context.Background(), ta, tor, 0)
		if err != nil {
			return err
		}
		if ttr.NumRecords() == 0 || tr.NumRecords() == 0 {
			return fmt.Errorf("lane %d: empty trace", i)
		}
		flat[i] = []*trPtr{{algo.Name, tr}, {ta.Name, ttr}}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]any{}
	for _, lane := range flat {
		for _, p := range lane {
			if prev, ok := byName[p.name]; ok && prev != any(p.tr) {
				t.Fatalf("%s: cache returned distinct traces", p.name)
			}
			byName[p.name] = p.tr
		}
	}
}

type trPtr struct {
	name string
	tr   any
}

// TestParallelSweepByteIdentical pins the tentpole guarantee: a sweep
// dispatched on one worker and on eight workers renders byte-identical
// artifacts. The chain covers every parallelized experiment family: fig9a
// (one sweep), ppn, fig11b (torus + flat cells), hier and fig5 — exercising
// the worker pools and every trace-cache family.
func TestParallelSweepByteIdentical(t *testing.T) {
	t.Parallel()
	render := func(eng *Engine, workers int) string {
		var sb strings.Builder
		for _, name := range []string{"fig9a", "ppn", "fig11b", "hier", "fig5"} {
			if err := RunExperiment(context.Background(), &sb, name, Options{Quick: true, Workers: workers, Engine: eng}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
		}
		return sb.String()
	}
	serial := render(&Engine{}, 1)
	eng := &Engine{}
	parallel := render(eng, 8)
	if serial != parallel {
		t.Fatalf("parallel output diverges from serial:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, parallel)
	}
	// A warm cache must not change the rendering either.
	if render(eng, 8) != serial {
		t.Fatal("warm trace cache changed the artifact")
	}
}

// TestTableBinomialByteIdentical covers the table artifacts (and, through
// them, every collective's sweep) at both pool widths.
func TestTableBinomialByteIdentical(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		var sb strings.Builder
		if err := RunExperiment(context.Background(), &sb, "table5", Options{Quick: true, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sb.String()
	}
	if a, b := render(1), render(6); a != b {
		t.Fatalf("table diverges:\n--- workers=1 ---\n%s\n--- workers=6 ---\n%s", a, b)
	}
}
