package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var paperScale = flag.Bool("paper-scale", false, "TestPaperScaleTraces synthesizes every fig11b -full trace (p up to 8 192) and compares each with its pinned hash")

const paperScalePins = "testdata/paper_scale_traces.json"

// TestPaperScaleTraces pins paper scale by content: it compiles and runs the
// fig11b -full plan on a fresh Engine, which synthesizes every trace the
// artifact replays (p up to 8 192), and compares the sha256 of each trace's
// encoding, keyed by its store key, with the committed testdata file. One
// hash per trace, so a failure names the schedule, as TestScheduleFingerprints
// does at p = 16. On a mismatch the test writes this build's hashes next to
// the test binary's temp files and names the path: a CodecVersion or
// schedVersion bump re-pins by copying that file over the committed one.
func TestPaperScaleTraces(t *testing.T) {
	if !*paperScale {
		t.Skip("paper scale: run with -paper-scale (~10 s, ~200 MB)")
	}
	eng := &Engine{}
	if err := RunExperiment(context.Background(), io.Discard, "fig11b", Options{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for key, e := range eng.traces {
		b, err := encodeTraceBytes(e.tr)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[fmt.Sprintf("%s/%s/%s/%s/root=%d", key.Kind, key.Collective, key.Algo, key.Shape, key.Root)] = hex.EncodeToString(sum[:])
	}
	defer func() {
		if !t.Failed() {
			return
		}
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(os.TempDir(), "paper_scale_traces.json")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("this build's %d hashes are in %s", len(got), out)
	}()
	raw, err := os.ReadFile(paperScalePins)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", paperScalePins, err)
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		switch g, ok := got[k]; {
		case !ok:
			t.Errorf("%s: pinned but not synthesized", k)
		case g != want[k]:
			t.Errorf("%s: trace hashes to %s, pinned %s", k, g, want[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: synthesized but not pinned", k)
		}
	}
}
