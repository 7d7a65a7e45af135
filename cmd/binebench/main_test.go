package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"binetrees/internal/obs"
	"binetrees/internal/pool"
)

// TestStageLine pins the -v latency row: quantiles only once there are
// enough observations for bucket interpolation to mean something, the exact
// mean below that.
func TestStageLine(t *testing.T) {
	cases := []struct {
		name   string
		labels string
		h      obs.HistogramSummary
		want   string
	}{
		{"single observation prints its own value, not a bucket midpoint",
			`stage="compile"`, obs.HistogramSummary{Count: 1, Sum: 0.090, P50: 0.075, P95: 0.0975, P99: 0.0995},
			`  stage="compile"          n=1       total=    0.090s  mean= 90.00ms`},
		{"mean never exceeds the total",
			`stage="execute"`, obs.HistogramSummary{Count: 1, Sum: 6.791, P50: 7.5, P95: 9.75, P99: 9.95},
			`  stage="execute"          n=1       total=    6.791s  mean=  6.791s`},
		{"nine observations are still too few",
			`stage="render"`, obs.HistogramSummary{Count: 9, Sum: 0.0036, P50: 0.0004, P95: 0.0009, P99: 0.001},
			`  stage="render"           n=9       total=    0.004s  mean= 400.0µs`},
		{"ten observations print the quantiles",
			`origin="synth"`, obs.HistogramSummary{Count: 10, Sum: 1.5, P50: 0.12, P95: 0.4, P99: 1.2},
			`  origin="synth"           n=10      total=    1.500s  p50=120.00ms p95=400.00ms p99=  1.200s`},
		{"quantiles inside the first bucket print its bound, not an interpolated midpoint",
			`stage="cache-lookup"`, obs.HistogramSummary{Count: 1084, Sum: 0.0004, P50: 0.00005, P95: 0.000095, P99: 0.000099},
			`  stage="cache-lookup"     n=1084    total=    0.000s  p50=≤100.0µs p95=≤100.0µs p99=≤100.0µs`},
		{"only the quantiles at or below the floor are bounded",
			`stage="evaluate"`, obs.HistogramSummary{Count: 696, Sum: 0.065, P50: 0.0001, P95: 0.0004036, P99: 0.00146},
			`  stage="evaluate"         n=696     total=    0.065s  p50=≤100.0µs p95= 403.6µs p99=  1.46ms`},
	}
	for _, tc := range cases {
		if got := stageLine(tc.labels, tc.h); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestUnattributedLine pins the remainder row under the -v stage table:
// execute less the per-cell stage totals divided by the worker count, its
// total in stageLine's column, negative when the per-cell stages overlap
// execute's wall time by more than it lasted.
func TestUnattributedLine(t *testing.T) {
	cases := []struct {
		name             string
		execute, perCell float64
		workers          int
		want             string
	}{
		{"two workers halve the per-cell sum", 1.5, 2.0, 2,
			`  unattributed                       total=    0.500s  = execute − Σ per-cell stages / 2 workers`},
		{"no per-cell stages leave execute whole", 0.25, 0, 8,
			`  unattributed                       total=    0.250s  = execute − Σ per-cell stages / 8 workers`},
		{"overlap beyond the wall time reads negative", 0.1, 0.3, 1,
			`  unattributed                       total=   -0.200s  = execute − Σ per-cell stages / 1 workers`},
	}
	for _, tc := range cases {
		if got := unattributedLine(tc.execute, tc.perCell, tc.workers); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
	row := stageLine(`stage="execute"`, obs.HistogramSummary{Count: 1, Sum: 1})
	if got := unattributedLine(1, 0, 1); strings.Index(got, "total=") != strings.Index(row, "total=") {
		t.Errorf("total columns differ:\n%s\n%s", row, got)
	}
}

// TestResourceLine pins the resource half of the -v stats line: CPU user and
// system seconds always, the peak RSS only where /proc reports VmHWM.
func TestResourceLine(t *testing.T) {
	status := "Name:\tbinebench\nVmPeak:\t  999999 kB\nVmHWM:\t  160256 kB\nVmRSS:\t   81920 kB\n"
	cases := []struct {
		name, status, want string
	}{
		{"linux", status, "; cpu user 1.50s sys 0.25s, peak RSS 156.5 MiB"},
		{"no /proc", "", "; cpu user 1.50s sys 0.25s"},
		{"no VmHWM line", "Name:\tbinebench\n", "; cpu user 1.50s sys 0.25s"},
	}
	for _, tc := range cases {
		if got := resourceLine(1500*time.Millisecond, 250*time.Millisecond, tc.status); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestVerboseStatsLine pins the shape of the line -v prints first: the
// trace-cache counters, then this process's CPU times and — where /proc
// exists — its peak RSS.
func TestVerboseStatsLine(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-experiment", "eq2", "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	shape := `^trace cache: .* MiB columnar; cpu user \d+\.\d\ds sys \d+\.\d\ds`
	if _, err := os.Stat("/proc/self/status"); err == nil {
		shape += `, peak RSS \d+\.\d MiB`
	}
	line, _, _ := strings.Cut(stderr.String(), "\n")
	if !regexp.MustCompile(shape + `$`).MatchString(line) {
		t.Fatalf("-v stats line %q does not match %s$", line, shape)
	}
}

// TestStageLatencyHeader pins the -v stage table's header: it names the
// resolved sweep width — -workers 0 is pool.DefaultWorkers — so per-cell
// stage totals, summed across workers, divide without guessing; the
// unattributed row under the table divides by the same width.
func TestStageLatencyHeader(t *testing.T) {
	for _, tc := range []struct{ flag, want int }{{3, 3}, {0, pool.DefaultWorkers()}} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-experiment", "eq2", "-v", "-workers", strconv.Itoa(tc.flag)}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if want := fmt.Sprintf("\nstage latency (Σ over %d workers):\n", tc.want); !strings.Contains(stderr.String(), want) {
			t.Errorf("-workers %d: -v output lacks %q:\n%s", tc.flag, want, stderr.String())
		}
		if want := fmt.Sprintf("s  = execute − Σ per-cell stages / %d workers\n", tc.want); !strings.Contains(stderr.String(), want) {
			t.Errorf("-workers %d: -v output lacks the unattributed row %q:\n%s", tc.flag, want, stderr.String())
		}
	}
}

// TestRunExitCodes pins the three failures users hit, in-process: an unknown
// experiment and an unusable -trace-cache fail the run (1), -systems without
// -experiment all is a usage error (2); each names its cause on stderr and
// writes nothing to stdout.
func TestRunExitCodes(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"unknown experiment", []string{"-experiment", "nonesuch"}, 1, "nonesuch"},
		{"-systems without all", []string{"-systems", "lumi", "-experiment", "fig1"}, 2, "-systems only applies to -experiment all"},
		{"trace cache under a regular file", []string{"-experiment", "eq2", "-trace-cache", filepath.Join(file, "store")}, 1, "tracestore:"},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) || stdout.Len() != 0 {
			t.Errorf("%s: exit %d (want %d), stdout %q (want empty), stderr %q (want it to mention %q)",
				tc.name, code, tc.code, stdout.String(), stderr.String(), tc.stderr)
		}
	}
}

// TestWorkersOverCapIsUsageError pins that a -workers above pool.MaxWidth is
// refused as a usage error (2) naming the cap before anything starts: no
// pool worker, no signal watcher, so the process has no more goroutines
// after the call than before it.
func TestWorkersOverCapIsUsageError(t *testing.T) {
	before := runtime.NumGoroutine()
	var stdout, stderr strings.Builder
	code := run([]string{"-workers", strconv.Itoa(pool.MaxWidth + 1)}, &stdout, &stderr)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before run, %d after it returned", before, after)
	}
	if want := "-workers 1025 exceeds the cap of 1024"; code != 2 || !strings.Contains(stderr.String(), want) || stdout.Len() != 0 {
		t.Errorf("exit %d (want 2), stdout %q (want empty), stderr %q (want it to mention %q)", code, stdout.String(), stderr.String(), want)
	}
}
