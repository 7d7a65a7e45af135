package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"binetrees/bench/span"
)

// workers is the pool width every program under test runs at: the 2-core
// reference host's width, fixed so a run on a bigger host measures the same
// configuration.
const workers = "2"

// setupReps is how many times a run repeats the workload's set-up; setup_s
// is the median, so one slow start does not decide it. (lumi-warm, whose
// set-up is a whole cold run, repeats it twice.)
const setupReps = 3

// experiments are the sixteen artifacts of the suite, in paper order: the
// single-experiment targets of the served catalogue.
var experiments = []string{"fig1", "eq2", "fig5", "table3", "fig9a", "fig9b", "table4", "fig10a",
	"fig10b", "table5", "fig11a", "fig11b", "fig14", "hier", "ppn", "appD"}

var (
	quickAll = []string{"-experiment", "all"}
	lumiFull = []string{"-experiment", "all", "-full", "-systems", "lumi"}
)

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// set is the probe's schedule set whose layers this workload exercises.
	set string
	// programCountsExact says the program-reported resolver counts repeat
	// exactly (true for a CLI run, whose work is fixed by its flags; false
	// for a served window, whose request count is not).
	programCountsExact bool
	measure            func(e *env) (*measurement, error)
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{"quick-cold", "small", true, cliWorkload{args: quickAll, setupReps: setupReps, burst: 1, setupBurst: 3, golden: "quick-all", crossArgs: slices.Concat(quickAll, []string{"-synth=false"})}.measure},
	{"lumi-cold", "large", true, cliWorkload{args: lumiFull, store: coldStore, setupReps: setupReps, burst: 0, warmArgs: []string{"-experiment", "all", "-systems", "lumi"}, golden: "lumi-full"}.measure},
	{"lumi-warm", "large", true, cliWorkload{args: lumiFull, store: warmStore, setupReps: 2, burst: 3, golden: "lumi-full"}.measure},
	{"serve-closed", "small", false, serveWorkload{}.measure},
}

// env is what one run of one workload works with.
type env struct {
	ctx        context.Context
	binebench  string
	binebenchd string
	tmp        string // scratch directory of this run, removed afterwards
	seed       int64
	seconds    float64
	rec        *span.Recorder // nil in the untraced run
	goldens    map[string]string
	cal        *calibrator // host-speed correction (calibrate.go)
	dirs       int
}

// cached returns args with -trace-cache dir appended.
func cached(args []string, dir string) []string {
	return slices.Concat(args, []string{"-trace-cache", dir})
}

// freshDir returns a new empty directory under the run's scratch directory.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// cli runs binebench at the fixed pool width inside a span.
func (e *env) cli(parent int, args ...string) cliRun {
	id := e.rec.Start(parent, "binebench "+strings.Join(args, " "))
	defer e.rec.End(id)
	return runCLI(e.ctx, e.binebench, append([]string{"-workers", workers}, args...)...)
}

// measurement is what a workload's run yields before it is turned into the
// named metrics. Times are reference-host times: what the clock read,
// divided by the host factor measured around it (calibrate.go).
type measurement struct {
	setupS    []float64 // one per set-up repetition
	opMS      []float64 // duration of every ok operation
	rawMS     []float64 // the same as the clock read it
	factors   []float64 // host factor of every ok operation
	cpuS      float64   // CPU seconds per operation
	rssMB     float64   // peak resident set of the program
	okRPS     float64
	attempted int
	failed    int
	notes     []string           // failed checks and warnings, for the report
	layer     map[string]float64 // per-layer metrics measured by the workload itself (traced run)
	info      map[string]float64 // context printed beside the metrics: sample counts, lateness
}

func (m *measurement) fail(format string, a ...any) {
	m.failed++
	if len(m.notes) < 20 {
		m.notes = append(m.notes, fmt.Sprintf(format, a...))
	}
}

type storeMode int

const (
	noStore   storeMode = iota // no -trace-cache
	coldStore                  // a fresh, empty -trace-cache per run: the write side
	warmStore                  // one -trace-cache populated in set-up: the read side
)

// cliWorkload times whole runs of binebench.
type cliWorkload struct {
	args      []string // binebench flags (without -workers and -trace-cache)
	store     storeMode
	setupReps int
	// burst and setupBurst are how many kernel calls measure the host
	// factor between two runs and on each side of a set-up repetition; 0
	// leaves those times uncorrected (calibrate.go says when and why).
	burst, setupBurst int
	// warmArgs are the flags of the two discarded warm-up runs of set-up
	// (default: args), always without a store. lumi-cold warms up at quick
	// scale: a discarded full-scale run would double the workload's cost to
	// page in a binary. And a warm-up that writes a store times the file
	// system's journal, not the program: with one, lumi-cold's set-up time
	// swung between 0.34 s and 0.76 s.
	warmArgs []string
	// golden names the committed artifact hash every run must reproduce.
	golden string
	// crossArgs, if set, are the flags of the other resolver path (the
	// recording fabric instead of synthesis), run once, untimed, whose
	// artifact must equal this workload's byte for byte.
	crossArgs []string
}

// withStore appends -trace-cache for the workload's store mode; cold mode
// gets a fresh directory per call.
func (w cliWorkload) withStore(e *env, args []string, warm string) ([]string, error) {
	switch w.store {
	case coldStore:
		dir, err := e.freshDir("store")
		if err != nil {
			return nil, err
		}
		return cached(args, dir), nil
	case warmStore:
		return cached(args, warm), nil
	}
	return args, nil
}

// setup is one repetition of the workload's preparation. For the warm-store
// workload that is the populate run, whose artifact (the cold path's) is
// returned with the store; for the others, two discarded warm-up runs
// without a store.
func (w cliWorkload) setup(e *env, parent int) (store string, populated []byte, err error) {
	if w.store == warmStore {
		if store, err = e.freshDir("store"); err != nil {
			return "", nil, err
		}
		r := e.cli(parent, cached(w.args, store)...)
		return store, r.stdout, r.err
	}
	warm := w.warmArgs
	if warm == nil {
		warm = w.args
	}
	for i := 0; i < 2; i++ {
		if r := e.cli(parent, warm...); r.err != nil {
			return "", nil, r.err
		}
	}
	return "", nil, nil
}

func (w cliWorkload) measure(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, info: map[string]float64{}}
	var store string
	var populated []byte
	host := newPace(e.cal, w.setupBurst, e.rec, 0)
	for rep := 0; rep < w.setupReps; rep++ {
		id := e.rec.Start(0, "setup")
		start := time.Now()
		var err error
		store, populated, err = w.setup(e, id)
		took := time.Since(start).Seconds()
		e.rec.End(id)
		m.setupS = append(m.setupS, took/host.next())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	// The artifact every run must reproduce: the committed golden on the
	// architecture it was recorded on, else whatever the first run prints
	// (runs must still agree with each other and across resolver paths).
	want := e.goldens[w.golden]
	check := func(what string, out []byte) bool {
		got := hashOf(out)
		if want == "" {
			want = got
		}
		if got != want {
			m.fail("%s: artifact hash %s, want %s", what, got, want)
		}
		return got == want
	}
	if populated != nil {
		m.attempted++
		check("populate run (cold path)", populated)
	}
	if w.crossArgs != nil {
		m.attempted++
		if r := e.cli(0, w.crossArgs...); r.err != nil {
			m.fail("cross-path run: %v", r.err)
		} else {
			check("cross-path run", r.stdout)
		}
	}

	// The timed window. In the traced run its second half passes -obs-json,
	// so the overhead of the program dumping its registry is known.
	window := e.rec.Start(0, "window")
	var cpu, rss, plainMS, tracedMS []float64
	obs := filepath.Join(e.tmp, "obs.json")
	busy, obsWall := 0.0, 0.0 // obsWall: wall time of the run obs.json describes
	host = newPace(e.cal, w.burst, e.rec, window)
	start := time.Now()
	phase := func(until float64, traced bool) error {
		for n := 0; n == 0 || time.Since(start).Seconds() < until; n++ {
			args, err := w.withStore(e, w.args, store)
			if err != nil {
				return err
			}
			if traced {
				args = slices.Concat(args, []string{"-obs-json", obs})
			}
			r := e.cli(window, args...)
			f := host.next()
			m.attempted++
			busy += r.wallS / f
			if r.err != nil {
				m.fail("%v", r.err)
				continue
			}
			if !check("run", r.stdout) {
				continue
			}
			cpu, rss = append(cpu, r.cpuS/f), append(rss, r.rssMB)
			m.rawMS, m.factors = append(m.rawMS, r.wallS*1e3), append(m.factors, f)
			if traced {
				tracedMS, obsWall = append(tracedMS, r.wallS*1e3/f), r.wallS
			} else {
				plainMS = append(plainMS, r.wallS*1e3/f)
			}
		}
		return nil
	}
	var err error
	if e.rec == nil {
		err = phase(e.seconds, false)
	} else if err = phase(e.seconds/2, false); err == nil {
		err = phase(e.seconds, true)
	}
	e.rec.End(window)
	if err != nil {
		return nil, err
	}

	m.opMS, m.cpuS, m.rssMB = slices.Concat(plainMS, tracedMS), median(cpu), median(rss)
	m.okRPS = float64(len(m.opMS)) / busy
	m.info["samples"] = float64(len(m.opMS))
	if obsWall > 0 {
		s, err := readObsJSON(obs)
		if err != nil {
			return nil, err
		}
		m.notes = append(m.notes, programReported(s, obsWall, m.layer)...)
		if base := median(plainMS); base > 0 {
			m.layer["bench.trace_overhead_share"] = (median(tracedMS) - base) / base
		}
	}
	return m, nil
}

// serveWorkload drives binebenchd over HTTP in a closed loop of catalogue
// sweeps (see load).
type serveWorkload struct{}

// references produces, with the CLI, the body the daemon must serve for
// every target of the catalogue: the sixteen experiments, then the heavy
// target.
func (serveWorkload) references(e *env, m *measurement) ([]target, error) {
	store, err := e.freshDir("refstore")
	if err != nil {
		return nil, err
	}
	id := e.rec.Start(0, "references")
	defer e.rec.End(id)
	all := e.cli(id, cached(quickAll, store)...)
	if all.err != nil {
		return nil, all.err
	}
	m.attempted++
	if want := e.goldens["quick-all"]; want != "" && hashOf(all.stdout) != want {
		m.fail("reference quick suite: artifact hash %s, want %s", hashOf(all.stdout), want)
	}
	var targets []target
	for _, name := range experiments {
		r := e.cli(id, cached([]string{"-experiment", name}, store)...)
		if r.err != nil {
			return nil, r.err
		}
		targets = append(targets, target{path: "/artifact/" + name, want: r.stdout})
	}
	r := e.cli(id, cached([]string{"-experiment", "all", "-systems", "lumi"}, store)...)
	if r.err != nil {
		return nil, r.err
	}
	return append(targets, target{path: "/artifact/all?systems=lumi", want: r.stdout}), nil
}

// setup is one repetition of the serve set-up: populate a fresh quick store
// with the CLI, start the daemon over it, wait for /readyz, and request every
// target once (checked like any other request).
func (serveWorkload) setup(e *env, parent int, targets []target, m *measurement) (*daemon, error) {
	store, err := e.freshDir("store")
	if err != nil {
		return nil, err
	}
	if r := e.cli(parent, cached(quickAll, store)...); r.err != nil {
		return nil, r.err
	}
	id := e.rec.Start(parent, "binebenchd start")
	d, err := startDaemon(e.ctx, e.binebenchd, store)
	e.rec.End(id)
	if err != nil {
		return nil, err
	}
	warm := &load{base: d.base}
	for _, t := range targets {
		var s sample
		warm.one(e.ctx, http.DefaultClient, t, &s, func() float64 { return 0 })
		m.attempted++
		if !s.ok {
			m.fail("warm-up GET %s: status %d or body differs from the CLI artifact", t.path, s.status)
		}
	}
	return d, nil
}

func (w serveWorkload) measure(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, info: map[string]float64{}}
	targets, err := w.references(e, m)
	if err != nil {
		return nil, fmt.Errorf("reference artifacts: %w", err)
	}
	var d *daemon
	host := newPace(e.cal, 3, e.rec, 0)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		id := e.rec.Start(0, "setup")
		start := time.Now()
		d, err = w.setup(e, id, targets, m)
		took := time.Since(start).Seconds()
		e.rec.End(id)
		m.setupS = append(m.setupS, took/host.next())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer d.stop()

	l := newLoad(d.base, targets, e.seed)
	l.pace = newPace(e.cal, 1, nil, 0)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var samples, plain []sample
	var sweeps, plainSweeps []sweep
	if e.rec == nil {
		samples, sweeps = l.drive(e.ctx, e.seconds)
	} else {
		// Traced run: an untraced half for the overhead base, then a traced
		// half bracketed by the daemon's own counters.
		plain, plainSweeps = l.drive(e.ctx, e.seconds/2)
		before, err := fetchMetrics(d.base)
		if err != nil {
			return nil, err
		}
		l.rec, l.parent = e.rec, e.rec.Start(0, "window")
		l.pace.rec, l.pace.parent = l.rec, l.parent
		samples, sweeps = l.drive(e.ctx, e.seconds/2)
		e.rec.End(l.parent)
		after, err := fetchMetrics(d.base)
		if err != nil {
			return nil, err
		}
		w.serviceLayer(m, after.minus(before), samples, sweeps, plainSweeps)
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.rssMB = d.stop()

	ok, misses := 0, 0
	for _, s := range slices.Concat(plain, samples) {
		m.attempted++
		if s.ok {
			ok++
		} else {
			m.fail("GET: status %d or body differs from the CLI artifact", s.status)
		}
		if !s.ok || s.latencyMS() > latencyLimitMS {
			misses++
		}
	}
	// The daemon is busy only during sweeps (the host factor is measured
	// between them), so its CPU time and the request rate are taken over the
	// sweeps: CPU per sweep at factor 1, ok requests per second of sweeping.
	busy, factorSum := 0.0, 0.0
	for _, sw := range slices.Concat(plainSweeps, sweeps) {
		busy += sw.latencyMS() / 1e3
		factorSum += sw.factor
		if sw.ok {
			m.opMS, m.factors = append(m.opMS, sw.latencyMS()), append(m.factors, sw.factor)
			m.rawMS = append(m.rawMS, sw.latencyMS()*sw.factor)
		}
	}
	m.cpuS = (cpu1 - cpu0) / factorSum
	m.okRPS = float64(ok) / busy
	m.info["samples"] = float64(len(m.opMS))
	m.info["requests"] = float64(ok)
	m.info["limit_misses"] = float64(misses)
	m.layer["service.limit_misses"] = float64(misses)
	return m, nil
}

// serviceLayer fills the service.* and program-reported metrics of a traced
// serve window from the daemon's counter deltas and the client's timings.
func (serveWorkload) serviceLayer(m *measurement, delta series, traced []sample, tracedSweeps, plainSweeps []sweep) {
	var ttfb, requestMS []float64
	for _, s := range traced {
		if s.ok {
			ttfb = append(ttfb, (s.first-s.sent)*1e3)
			requestMS = append(requestMS, s.latencyMS())
		}
	}
	m.layer["service.ttfb_ms"] = median(ttfb)
	m.layer["service.request_p50_ms"] = median(requestMS)
	m.layer["service.request_p95_ms"] = tail(requestMS)
	sweepMS := func(sweeps []sweep) (ms []float64) {
		for _, sw := range sweeps {
			if sw.ok {
				ms = append(ms, sw.latencyMS())
			}
		}
		return ms
	}
	if base := median(sweepMS(plainSweeps)); base > 0 {
		m.layer["bench.trace_overhead_share"] = (median(sweepMS(tracedSweeps)) - base) / base
	}
	for _, c := range [][2]string{
		{"service.renders", "binebenchd_renders_total"},
		{"service.dedup_joins", "binebenchd_flight_joins_total"},
		{"service.shed", `binebenchd_admission_total{decision="shed"}`},
		{"service.pool_busy_s", "binebenchd_pool_busy_seconds"},
		{"service.pool_wait_s", "binebenchd_pool_wait_seconds"},
	} {
		v, ok := delta[c[1]]
		if !ok {
			m.notes = append(m.notes, "program no longer reports "+c[1])
		}
		m.layer[c[0]] = v
	}
	m.notes = append(m.notes, programReported(delta, delta["binebenchd_serve_seconds_sum"], m.layer)...)
}

// runProbe builds nothing: it runs the already built probe over the
// workload's schedule set and merges its metrics and spans.
func runProbe(e *env, probe, set string, into map[string]float64) error {
	tmp, err := e.freshDir("probe")
	if err != nil {
		return err
	}
	id := e.rec.Start(0, "probe "+set)
	offset := e.rec.Now()
	out, err := exec.CommandContext(e.ctx, probe, "-set", set, "-tmp", tmp).Output()
	e.rec.End(id)
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return fmt.Errorf("probe: %w", err)
	}
	var res struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   []span.Span        `json:"spans"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return fmt.Errorf("probe output: %w", err)
	}
	for k, v := range res.Metrics {
		into[k] = v
	}
	e.rec.Graft(id, res.Spans, offset)
	return nil
}

// loadGoldens reads the committed artifact hashes recorded on this
// architecture; on any other, only the cross-path checks apply.
func loadGoldens(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var byArch map[string]map[string]string
	if err := json.Unmarshal(raw, &byArch); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return byArch[runtime.GOARCH], nil
}
