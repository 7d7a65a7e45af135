package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// manifest is the part of BENCHMARK.json the comparison reads: each
// end-to-end metric's direction and the share of the old median by which it
// may worsen.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// floors are the absolute changes below which a metric is never called a
// regression, whatever its relative bound says: a 0.1 s set-up that takes
// 0.13 s the next time has not regressed, the scheduler hiccuped. They are a
// few times the run-to-run quartile distance of the smallest workload's
// value, measured on the 2-core reference host (README.md, "Bounds").
var floors = map[string]float64{
	"setup_s":     0.05,
	"p50_ms":      1,
	"cpu_s":       0.005,
	"peak_rss_mb": 2,
	"ok_rps":      0.05,
}

// compareFiles prints, per workload and end-to-end metric, the new median
// against the old one and the verdict under the manifest's bounds, then the
// exact-count check, and returns the exit status: 1 on any regression,
// count mismatch or rise in failures.
func compareFiles(w io.Writer, manifestPath, oldPath, newPath string) int {
	var mf manifest
	var oldDoc, newDoc document
	for path, into := range map[string]any{manifestPath: &mf, oldPath: &oldDoc, newPath: &newDoc} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, into)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	bad := 0
	for _, wl := range workloads {
		oldRuns, newRuns := runsOf(oldDoc.Runs, wl.name), runsOf(newDoc.Runs, wl.name)
		if len(oldRuns) == 0 || len(newRuns) == 0 {
			continue
		}
		oldV, newV := valuesOf(oldRuns), valuesOf(newRuns)
		for _, d := range mf.EndToEnd {
			a, b := oldV[d.Name], newV[d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, d.Better == "higher", d.Bound, floors[d.Name])
			if v.verdict == "REGRESSION" {
				bad++
			}
			fmt.Fprintf(w, "%-13s %-12s %12.6g -> %-12.6g %+7.2f%%  bound %4.1f%%  spread %5.2f%%/%5.2f%%  %s\n",
				wl.name, d.Name, v.oldMedian, v.newMedian, 100*v.change, 100*d.Bound, 100*spread(a), 100*spread(b), v.verdict)
		}
		if of, nf := failShare(oldRuns), failShare(newRuns); nf > of {
			bad++
			fmt.Fprintf(w, "%-13s fail_share   %12.6g -> %-12.6g REGRESSION (may not rise at all)\n", wl.name, of, nf)
		}
		bad += compareCounts(w, wl.name, oldRuns, newRuns)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}

type verdict struct {
	oldMedian, newMedian float64
	change               float64 // (new - old) / old
	verdict              string
}

// judge compares the medians of two run sets of one metric. The new side is
// worse when it moved against the metric's direction by more than
// max(bound x old, floor). When either side's own run-to-run spread exceeds
// the bound the medians cannot resolve a change of that size, so the verdict
// is "unresolved" — unless every new run reads better than every old run.
func judge(old, new []float64, higherBetter bool, bound, floor float64) verdict {
	v := verdict{oldMedian: median(old), newMedian: median(new), verdict: "ok"}
	if v.oldMedian != 0 {
		v.change = (v.newMedian - v.oldMedian) / math.Abs(v.oldMedian)
	}
	worse := v.newMedian - v.oldMedian
	if higherBetter {
		worse = -worse
	}
	allBetter := slices.Max(new) < slices.Min(old)
	if higherBetter {
		allBetter = slices.Min(new) > slices.Max(old)
	}
	switch {
	case (spread(old) > bound || spread(new) > bound) && !allBetter:
		v.verdict = "unresolved"
	case worse > max(bound*math.Abs(v.oldMedian), floor):
		v.verdict = "REGRESSION"
	}
	return v
}

func failShare(runs []result) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareCounts checks that every metric both sides mark exact has one
// single value across all runs of both files.
func compareCounts(w io.Writer, workload string, oldRuns, newRuns []result) (bad int) {
	all := slices.DeleteFunc(slices.Concat(oldRuns, newRuns), func(r result) bool { return len(r.Exact) == 0 })
	if len(all) == 0 {
		return 0
	}
	for _, name := range all[0].Exact {
		first := all[0].Metrics[name].Value
		for _, r := range all[1:] {
			if slices.Contains(r.Exact, name) && r.Metrics[name].Value != first {
				bad++
				fmt.Fprintf(w, "%-13s %-28s exact count differs: %v vs %v  REGRESSION\n", workload, name, first, r.Metrics[name].Value)
				break
			}
		}
	}
	return bad
}
