package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const obsJSON = `{"time":"2026-01-01T00:00:00Z","metrics":[
 {"name":"binebench_resolves_total","labels":"origin=\"memory\"","type":"counter","value":1084},
 {"name":"binebench_resolves_total","labels":"origin=\"record\"","type":"counter"},
 {"name":"binebench_stage_seconds","labels":"stage=\"compile\"","type":"histogram","histogram":{"count":1,"sum":0.125}},
 {"name":"binebench_synth_traces_total","type":"counter","value":342}]}`

const promText = `# HELP binebench_stage_seconds Stage latency.
# TYPE binebench_stage_seconds histogram
binebench_stage_seconds_bucket{stage="compile",le="0.001"} 0
binebench_stage_seconds_sum{stage="compile"} 0.125
binebench_stage_seconds_count{stage="compile"} 1
binebench_resolves_total{origin="memory"} 1084
binebenchd_renders_total 22
`

// Both expositions of the program's registry read into the same keys.
func TestRegistryReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	if err := os.WriteFile(path, []byte(obsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := readObsJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := readPrometheus(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []series{fromJSON, fromText} {
		if s[`binebench_stage_seconds_sum{stage="compile"}`] != 0.125 || s[`binebench_resolves_total{origin="memory"}`] != 1084 {
			t.Errorf("series read wrong: %v", s)
		}
	}
	if fromJSON["binebench_synth_traces_total"] != 342 || fromText["binebenchd_renders_total"] != 22 {
		t.Errorf("unlabelled series read wrong")
	}
	if d := fromText.minus(series{"binebenchd_renders_total": 20}); d["binebenchd_renders_total"] != 2 {
		t.Errorf("delta = %v, want 2", d["binebenchd_renders_total"])
	}
}

// A series the program stopped exporting costs a warning and a zero, never
// a crash, and the reconciliation line still adds up.
func TestMissingSeriesWarns(t *testing.T) {
	s, err := readPrometheus(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	into := map[string]float64{}
	warnings := programReported(s, 0.5, into)
	if into["harness.stage_compile_s"] != 0.125 || into["harness.resolve_memory"] != 1084 {
		t.Errorf("present series not reported: %v", into)
	}
	if into["harness.unattributed_s"] != 0.375 {
		t.Errorf("unattributed = %v, want 0.5 - 0.125", into["harness.unattributed_s"])
	}
	if v, ok := into["harness.stage_synth_s"]; !ok || v != 0 {
		t.Errorf("a missing series must be reported as 0")
	}
	joined := strings.Join(warnings, "\n")
	if !strings.Contains(joined, `stage="synth"`) || strings.Contains(joined, `stage="compile"`) {
		t.Errorf("warnings should name exactly the missing series: %s", joined)
	}
}
