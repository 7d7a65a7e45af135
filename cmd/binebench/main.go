// Command binebench regenerates the tables and figures of the Bine Trees
// paper (SC '25) on the simulated systems. Each experiment prints a text
// rendering of the corresponding paper artifact; EXPERIMENTS.md at the
// repository root maps every experiment name to its paper artifact.
//
// Every experiment compiles to a flat job graph of independent recording
// and evaluation cells, drained on one worker pool (one worker per CPU by
// default; -workers overrides, up to 1024). "all" is itself an experiment:
// every artifact's plan compiled up front, every system's cells — LUMI,
// Leonardo, MareNostrum, Fugaku — drained together on that pool, the
// artifacts rendered in paper order; -systems selects a subset of its
// artifact groups and -progress reports live per-system cell counts on
// stderr.
// A receive on the recording fabric fails only once the whole fabric has
// delivered nothing for its timeout, so full-scale recordings (the 8192-node
// Fugaku ring) complete at any schedule length. Artifacts are byte-identical
// at any pool width and sharding (pinned by tests). Traces store each distinct
// step body once, columnar (struct-of-arrays int32), with replay running off
// the step index and replaying each distinct body once, routes
// computed per message pair into a reused buffer, and dense scratch — see
// EXPERIMENTS.md "Performance".
//
// Cold schedules are synthesized directly from schedule math (a serial
// pattern walk, no goroutine fabric) and are byte-identical to fabric
// recordings (the fabric is the oracle the harness tests hold every
// synthesized schedule to), and a schedule the synthesizer cannot walk fails
// the run as a failed recording would. -synth=false forces the recording
// path. With -trace-cache the resolved traces also persist to a
// content-addressed on-disk store shared across runs — a warm store makes
// repeated -full runs and CI sweeps skip even synthesis. -v prints the cache
// counters (memory/disk hits, synthesized count, recordings, evictions, and
// the resident columnar footprint) and the process's CPU user/system time
// and peak RSS to stderr so
// warm and cold runs are observable, followed by the per-stage latency
// breakdown — compile, execute, render, cache-lookup, store-load, synth,
// fabric-record, store-save, evaluate — and the per-origin resolve histograms (count,
// total, p50/p95/p99). -obs-json dumps the full metric registry (counters,
// gauges, histogram buckets) as JSON for offline analysis; it shares one
// metric vocabulary with binebenchd's /metrics endpoint, so sweep runs and
// served runs are joinable.
//
// Usage:
//
//	binebench -experiment all                     # everything, quick sweep
//	binebench -experiment table3 -full            # one artifact at full paper scale
//	binebench -experiment all -systems lumi,fugaku -progress
//	binebench -experiment all -workers 1
//	binebench -experiment all -trace-cache ~/.cache/binetrees -v
//	binebench -experiment fig11b -obs-json obs.json
//
// Experiments: fig1, eq2, fig5, table3, fig9a, fig9b, table4, fig10a,
// fig10b, table5, fig11a, fig11b, fig14, hier, ppn, appD, all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"binetrees/internal/harness"
	"binetrees/internal/obs"
	"binetrees/internal/pool"
	"binetrees/internal/tracestore"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command — flags in, artifact on stdout, diagnostics on
// stderr, exit code out — so tests can drive it in-process. Exit codes: 0 on
// success, 1 on a failed run (unknown experiment, unusable -trace-cache or
// -obs-json path, recording error), 2 on a usage error (a -workers above
// pool.MaxWidth among them, refused before any worker starts).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("binebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "which paper artifact to regenerate")
	full := fs.Bool("full", false, "run the full paper-scale sweep (slower) instead of the quick one")
	workers := fs.Int("workers", 0, "sweep worker pool width (0 = one per CPU; at most 1024)")
	systems := fs.String("systems", "", "comma-separated system keys restricting -experiment all ("+strings.Join(harness.SystemKeys(), ", ")+"); empty = all")
	progress := fs.Bool("progress", false, "report live per-system cell counts on stderr")
	traceCache := fs.String("trace-cache", "", "directory of the persistent trace store (empty = in-process cache only)")
	synthOn := fs.Bool("synth", true, "synthesize cold traces directly from schedule math instead of recording on the goroutine fabric")
	verbose := fs.Bool("v", false, "print trace-cache statistics and the stage latency breakdown to stderr after the run")
	obsJSON := fs.String("obs-json", "", "write the observability registry snapshot (counters, gauges, histogram buckets) as JSON to this file after the run (\"-\" = stderr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := pool.CheckWidth("-workers", *workers); err != nil {
		fmt.Fprintln(stderr, "binebench:", err)
		return 2
	}
	if *systems != "" && *experiment != "all" {
		fmt.Fprintln(stderr, "binebench: -systems only applies to -experiment all")
		return 2
	}
	// The run's one Engine: the two resolver flags map onto its fields.
	engine := &harness.Engine{DisableSynth: !*synthOn}
	if *traceCache != "" {
		store, err := tracestore.Open(*traceCache)
		if err != nil {
			fmt.Fprintln(stderr, "binebench:", err)
			return 1
		}
		engine.Store = store
	}
	opts := harness.Options{Quick: !*full, Workers: *workers, Engine: engine}
	if *systems != "" {
		opts.Systems = strings.Split(*systems, ",")
	}
	if *progress {
		opts.Progress = progressPrinter(stderr)
	}
	// The process-lifetime context, cancelled on interrupt: Ctrl-C stops
	// dispatching cells (in-flight ones complete, keeping the shared caches
	// consistent) instead of killing the run mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Every experiment, "all" included, compiles and renders through the same
	// plan path the binebenchd artifact service uses, so CLI files and served
	// responses are byte-identical by construction.
	err := harness.RunExperiment(ctx, stdout, *experiment, opts)
	if *progress {
		fmt.Fprintln(stderr)
	}
	if *verbose {
		fmt.Fprintln(stderr, engine.Stats().String()+processResources())
		printStageBreakdown(stderr, pool.Width(*workers))
	}
	if *obsJSON != "" {
		if derr := dumpObsJSON(*obsJSON, stderr); derr != nil {
			fmt.Fprintln(stderr, "binebench:", derr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "binebench:", err)
		return 1
	}
	return 0
}

// processResources is the -v stats line's resource half: the process's own
// CPU user and system time (getrusage RUSAGE_SELF) and its peak RSS, read
// from VmHWM in /proc/self/status — not ru_maxrss, which a process inherits
// from whatever spawned it — and omitted where /proc is absent.
func processResources() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ""
	}
	status, _ := os.ReadFile("/proc/self/status") // absent: no peak RSS
	return resourceLine(time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), string(status))
}

// resourceLine renders CPU times and, when the /proc status text has a
// VmHWM line, the peak RSS it reports.
func resourceLine(user, sys time.Duration, status string) string {
	line := fmt.Sprintf("; cpu user %.2fs sys %.2fs", user.Seconds(), sys.Seconds())
	for _, l := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			if kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
				line += fmt.Sprintf(", peak RSS %.1f MiB", float64(kib)/1024)
			}
		}
	}
	return line
}

// printStageBreakdown renders the pipeline stage and resolver-origin latency
// histograms accumulated over the run — the -v observability report. Stages
// with no observations (e.g. store-load without -trace-cache) are omitted.
// The header names the sweep's worker count: per-cell stages (synth,
// evaluate, store-load, store-save) run on every worker at once, so their totals are
// summed over that many and may exceed the wall time. The table ends with
// execute's unattributed remainder (unattributedLine).
func printStageBreakdown(w io.Writer, workers int) {
	var stages, resolves []obs.MetricSnapshot
	for _, s := range obs.Default.Snapshot() {
		if s.Histogram == nil || s.Histogram.Count == 0 {
			continue
		}
		switch s.Name {
		case "binebench_stage_seconds":
			stages = append(stages, s)
		case "binebench_resolve_seconds":
			resolves = append(resolves, s)
		}
	}
	print := func(title string, snaps []obs.MetricSnapshot) {
		if len(snaps) == 0 {
			return
		}
		fmt.Fprintln(w, title)
		for _, s := range snaps {
			fmt.Fprintln(w, stageLine(s.Labels, *s.Histogram))
		}
	}
	print(fmt.Sprintf("stage latency (Σ over %d workers):", workers), stages)
	totals := map[string]float64{} // stage label set → seconds
	for _, s := range stages {
		totals[s.Labels] = s.Histogram.Sum
	}
	label := func(st obs.Stage) string { return fmt.Sprintf("stage=%q", st) }
	if execute, ok := totals[label(obs.StageExecute)]; ok {
		perCell := 0.0
		for _, st := range []obs.Stage{obs.StageSynth, obs.StageEvaluate, obs.StageStoreLoad, obs.StageStoreSave} {
			perCell += totals[label(st)]
		}
		fmt.Fprintln(w, unattributedLine(execute, perCell, workers))
	}
	print("resolve latency by origin:", resolves)
}

// unattributedLine renders the part of the execute stage's wall time no
// per-cell stage accounts for: execute less the per-cell stage totals
// averaged over the workers that ran them — dispatch, memory-tier lookups
// and cell bookkeeping. Its total column lines up with stageLine's.
func unattributedLine(execute, perCell float64, workers int) string {
	return fmt.Sprintf("  %-34s total=%9.3fs  = execute − Σ per-cell stages / %d workers",
		"unattributed", execute-perCell/float64(workers), workers)
}

// minQuantileSamples is the observation count below which a bucket-
// interpolated quantile is an artefact of the bucket edges, not of the data:
// one 90 ms observation reads "p50=75ms p99=99.5ms".
const minQuantileSamples = 10

// stageLine renders one row of the -v latency tables: count and total, then
// the quantile estimates — or, below minQuantileSamples, the exact mean.
func stageLine(labels string, h obs.HistogramSummary) string {
	row := fmt.Sprintf("  %-24s n=%-7d total=%9.3fs  ", labels, h.Count, h.Sum)
	if h.Count < minQuantileSamples {
		return row + "mean=" + fmtSeconds(h.Sum/float64(h.Count))
	}
	return row + fmt.Sprintf("p50=%s p95=%s p99=%s", fmtQuantile(h.P50), fmtQuantile(h.P95), fmtQuantile(h.P99))
}

// fmtQuantile renders a bucket-interpolated estimate. At or below the first
// bucket bound the histogram knows only "in the first bucket", so that is
// what is printed — not a midpoint the interpolation invented for a stage
// whose real latency may be a hundredth of it.
func fmtQuantile(q float64) string {
	if floor := obs.DefBuckets[0]; q <= floor {
		return "≤" + strings.TrimSpace(fmtSeconds(floor))
	}
	return fmtSeconds(q)
}

// fmtSeconds renders a quantile estimate compactly (µs/ms/s by magnitude).
func fmtSeconds(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%6.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%6.2fms", s*1e3)
	default:
		return fmt.Sprintf("%7.3fs", s)
	}
}

// dumpObsJSON writes the full metric registry snapshot as indented JSON —
// the machine-readable counterpart of the -v breakdown, sharing its metric
// vocabulary with binebenchd's /metrics endpoint.
func dumpObsJSON(path string, stderr io.Writer) error {
	if path == "-" {
		return obs.Default.WriteJSON(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs-json: %w", err)
	}
	if err := obs.Default.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs-json: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs-json: %w", err)
	}
	return nil
}

// progressPrinter renders the per-system cell counters as a single
// rewritten stderr line: "lumi 132/270  leonardo 88/308  ...".
func progressPrinter(w io.Writer) harness.ProgressFunc {
	var mu sync.Mutex
	var order []string
	state := map[string][2]int{}
	return func(system string, done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := state[system]; !ok {
			order = append(order, system)
		}
		state[system] = [2]int{done, total}
		parts := make([]string, len(order))
		for i, s := range order {
			parts[i] = fmt.Sprintf("%s %d/%d", s, state[s][0], state[s][1])
		}
		// Pad-and-truncate to one fixed-width line so the \r rewrite never
		// wraps and scrolls on narrow terminals.
		const width = 79
		line := strings.Join(parts, "  ")
		if len(line) > width {
			line = line[:width]
		}
		fmt.Fprintf(w, "\r%-*s", width, line)
	}
}
