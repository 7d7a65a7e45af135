package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		what         string
		old, new     []float64
		higherBetter bool
		bound, floor float64
		want         string
	}{
		{"within the bound", steady, []float64{105, 106, 104, 105, 107}, false, 0.1, 0, "ok"},
		{"worse by more than the bound", steady, []float64{115, 116, 114, 115, 117}, false, 0.1, 0, "REGRESSION"},
		{"better is never a regression", steady, []float64{50, 51, 49, 50, 52}, false, 0.1, 0, "ok"},
		{"higher is better: a drop regresses", steady, []float64{80, 81, 79, 80, 82}, true, 0.1, 0, "REGRESSION"},
		{"higher is better: a rise is fine", steady, []float64{180, 181, 179, 180, 182}, true, 0.1, 0, "ok"},
		{"under the absolute floor", []float64{0.10, 0.10, 0.10}, []float64{0.13, 0.13, 0.13}, false, 0.1, 0.05, "ok"},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 130}, []float64{115, 116, 114, 115, 117}, false, 0.1, 0, "unresolved"},
		{"wide spread, but every new run beats every old run", []float64{80, 100, 120, 90, 130}, []float64{50, 51, 49, 50, 52}, false, 0.1, 0, "ok"},
		{"single runs have no spread to doubt", []float64{100}, []float64{120}, false, 0.1, 0, "REGRESSION"},
	} {
		if got := judge(c.old, c.new, c.higherBetter, c.bound, c.floor).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.what, got, c.want)
		}
	}
}

func TestCompareCountsMustRepeatExactly(t *testing.T) {
	run := func(records float64, renders float64) result {
		return result{Workload: "quick-cold", Trace: 1, Exact: []string{"synth.records"}, outcome: outcome{
			Metrics: map[string]metricValue{"synth.records": {records, "count"}, "service.renders": {renders, "n"}}}}
	}
	var out bytes.Buffer
	if bad := compareCounts(&out, "quick-cold", []result{run(100, 7), run(100, 9)}, []result{run(100, 8)}); bad != 0 {
		t.Errorf("equal exact counts (and a moving inexact one) flagged: %s", out.String())
	}
	if bad := compareCounts(&out, "quick-cold", []result{run(100, 7)}, []result{run(101, 7)}); bad != 1 || !strings.Contains(out.String(), "synth.records") {
		t.Errorf("a changed exact count must be flagged once, got %d: %s", bad, out.String())
	}
	if bad := compareCounts(&out, "quick-cold", []result{{Workload: "quick-cold"}}, []result{{Workload: "quick-cold"}}); bad != 0 {
		t.Errorf("untraced runs carry no counts to compare, got %d", bad)
	}
}

func TestFailShareMayNotRise(t *testing.T) {
	if failShare([]result{{outcome: outcome{Attempted: 10}}, {outcome: outcome{Attempted: 10, Failed: 1}}}) != 0.05 {
		t.Errorf("fail share is failed / attempted over all runs")
	}
}
