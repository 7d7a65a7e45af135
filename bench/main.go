// Command bench is the repository benchmark (see README.md beside it and
// BENCHMARK.json at the repository root). It builds cmd/binebench and
// cmd/binebenchd once, then measures the named workload — or all four — by
// driving only the built binaries through their flags and HTTP endpoints,
// checks every artifact and served body, and prints the metrics by name.
//
//	go run -C bench . --workload lumi-warm --seed 3 --seconds 20 --trace 0
//	go run -C bench . -runs 5 -out a.json        # every workload, five seeds
//	go run -C bench . -trace 1                   # per-layer metrics + out/trace.json
//	go run -C bench . -compare a.json b.json     # deltas against the fixed bounds
//
// The last line of standard output is the result of the last run as one JSON
// object; everything for people goes to standard error. The exit status is
// non-zero when a check failed, a regression was found, or anything broke.
//
// Linux only: resource figures come from wait4 rusage and /proc.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"binetrees/bench/span"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result object the benchmark contract asks for: exactly
// these four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run of one workload: its outcome and the context a
// comparison needs.
type result struct {
	outcome
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Exact names the metrics of this run that are exact counts.
	Exact []string           `json:"exact,omitempty"`
	Info  map[string]float64 `json:"info,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

// document is what -out writes and -compare reads.
type document struct {
	Env  map[string]string `json:"env"`
	Runs []result          `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "run this workload alone (default: all of them)")
	seed := flag.Int64("seed", 1, "seed of the served request order; run i of -runs uses seed+i")
	seconds := flag.Float64("seconds", 20, "length of each timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run (per-layer metrics, out/trace.json)")
	runs := flag.Int("runs", 1, "repeat each workload this many times, so the result file records the run-to-run spread")
	out := flag.String("out", "", "also write every run and the environment to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare old.json new.json")
	flag.Parse()

	bench, err := os.Getwd()
	if err != nil {
		return fatal(err)
	}
	root := filepath.Dir(bench)
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}
	if *seconds <= 0 || *runs < 1 || *trace < 0 || *trace > 1 {
		return fatal(fmt.Errorf("need -seconds > 0, -runs >= 1 and -trace 0 or 1"))
	}

	// Interrupts cancel the context; every child is started under it or
	// stopped by a deferred call, so none outlives this process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	outDir := filepath.Join(bench, "out")
	bin := filepath.Join(outDir, "bin")
	buildStart := time.Now()
	if err := build(ctx, root, bin, "./cmd/binebench", "./cmd/binebenchd"); err != nil {
		return fatal(err)
	}
	if *trace == 1 {
		if err := build(ctx, bench, bin, "./probe"); err != nil {
			return fatal(fmt.Errorf("the per-layer probe no longer builds against internal/: %w", err))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: built the binaries in %.1fs\n", time.Since(buildStart).Seconds())
	goldens, err := loadGoldens(filepath.Join(bench, "goldens.json"))
	if err != nil {
		return fatal(err)
	}

	cal := newCalibrator()
	doc := document{Env: environment(root)}
	var spans []span.Span
	status := 0
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			e := &env{
				ctx:        ctx,
				binebench:  filepath.Join(bin, "binebench"),
				binebenchd: filepath.Join(bin, "binebenchd"),
				seed:       *seed + int64(i),
				seconds:    *seconds,
				goldens:    goldens,
				cal:        cal,
			}
			if *trace == 1 {
				e.rec = span.New(w.name)
			}
			res, err := runWorkload(e, w, outDir, filepath.Join(bin, "probe"))
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			report(res)
			if !res.Correct {
				status = 1
			}
			doc.Runs = append(doc.Runs, *res)
			spans = append(spans, e.rec.Spans()...)
		}
	}
	if *trace == 1 {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), spans); err != nil {
			return fatal(err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return fatal(err)
		}
	}
	if *runs > 1 {
		reportSpread(doc.Runs)
	}
	line, err := json.Marshal(doc.Runs[len(doc.Runs)-1].outcome)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	return status
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// build compiles the packages into dir with the go tool, from the module
// rooted at moduleDir.
func build(ctx context.Context, moduleDir, dir string, pkgs ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", strings.Join(pkgs, " "), err, out)
	}
	return nil
}

// runWorkload runs one workload once in a scratch directory of its own and
// names what it measured.
func runWorkload(e *env, w workload, outDir, probe string) (*result, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp
	fmt.Fprintf(os.Stderr, "bench: %s (seed %d, %gs window, trace %v)\n", w.name, e.seed, e.seconds, e.rec != nil)
	m, err := w.measure(e)
	if err != nil {
		return nil, err
	}
	res := &result{
		outcome:  outcome{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}},
		Workload: w.name, Seed: e.seed, Info: m.info, Notes: m.notes,
	}
	if len(m.opMS) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %s", strings.Join(m.notes, "; "))
	}
	// What the clock read, for people: the reported times are these divided
	// by the host factor.
	m.info["host_factor"] = median(m.factors)
	m.info["raw_p50_ms"] = median(m.rawMS)
	if e.rec == nil {
		values := map[string]float64{
			"setup_s":     median(m.setupS),
			"p50_ms":      median(m.opMS),
			"cpu_s":       m.cpuS,
			"peak_rss_mb": m.rssMB,
			"ok_rps":      m.okRPS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		}
		return res, nil
	}
	res.Trace = 1
	m.layer["bench.host_factor"] = m.info["host_factor"]
	m.layer["bench.raw_p50_ms"] = m.info["raw_p50_ms"]
	if err := runProbe(e, probe, w.set, m.layer); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		// A layer the workload never enters (the service on a CLI run)
		// reports 0, as does a series the program stopped exporting (which
		// programReported has already put in the notes).
		res.Metrics[d.name] = metricValue{m.layer[d.name], d.unit}
		if d.unit == "count" || (w.programCountsExact && strings.HasPrefix(d.name, "harness.resolve_")) {
			res.Exact = append(res.Exact, d.name)
		}
	}
	return res, nil
}

// report prints one run for people: every metric by name with its unit.
func report(r *result) {
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d fail_share=%.4f\n",
		r.Workload, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, k := range slices.Sorted(maps.Keys(r.Info)) {
		fmt.Fprintf(os.Stderr, "  (%s %g)\n", k, r.Info[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
}

// reportSpread prints, per workload and metric, the median over the runs and
// the quartile distance as a share of it.
func reportSpread(runs []result) {
	fmt.Fprintln(os.Stderr, "median and spread (quartile distance / median) over the runs:")
	for _, w := range workloads {
		values := valuesOf(runsOf(runs, w.name))
		for _, d := range slices.Concat(endToEnd, perLayer) {
			if v := values[d.name]; len(v) > 1 {
				fmt.Fprintf(os.Stderr, "  %-14s %-32s %14.6g %-6s spread %6.2f%%\n", w.name, d.name, median(v), d.unit, 100*spread(v))
			}
		}
	}
}

// runsOf returns the runs of one workload.
func runsOf(runs []result, workload string) []result {
	var out []result
	for _, r := range runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

// valuesOf collects each metric's values over the runs.
func valuesOf(runs []result) map[string][]float64 {
	values := map[string][]float64{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	return values
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// environment records what the numbers were measured on.
func environment(root string) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        "unknown",
		"commit":     "unknown", // the benchmark also runs in plain checkouts without .git
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}
