package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"binetrees/internal/obs"
	"binetrees/internal/pool"
)

// The harness used to drain each experiment's cells on that experiment's
// own worker pool, one experiment at a time. The job graph below flattens
// the whole suite instead: every experiment compiles to a plan — tasks
// that may run in any order plus a serial render — and RunAll concatenates
// all selected plans' tasks into one flat (system × collective × node
// count × algorithm) cell list drained by a single pool.Runner, so the
// LUMI / Leonardo / MareNostrum / Fugaku artifact groups record and
// evaluate concurrently while sharing one Engine's trace cache.

// task is one schedulable cell of the flat cross-system job graph: an
// independent recording or evaluation unit, labeled with the system key it
// belongs to for progress accounting. run receives the drain's context so
// cell-level stage timings (resolve, evaluate) attribute to the request
// trace it may carry.
type task struct {
	system string
	run    func(ctx context.Context) error
}

// plan is one experiment compiled for the job graph: tasks that may run in
// any order on any pool, and a render that serially writes the artifact
// once every task has completed. A render only reads state its own plan's
// tasks wrote into index-addressed slots, so the artifact is byte-identical
// however the tasks interleave — drained per experiment or across the whole
// cross-system graph (pinned by TestShardedRunAllByteIdentical).
type plan struct {
	tasks  []task
	render func(w io.Writer) error
}

// ProgressFunc observes job-graph progress: system is the completed cell's
// system key, done/total that system's cell counts. Called concurrently
// from pool workers (serialized per tracker).
type ProgressFunc func(system string, done, total int)

// progressTracker aggregates per-system completion counts and fans them
// into a ProgressFunc. A nil tracker is a no-op.
type progressTracker struct {
	fn    ProgressFunc
	mu    sync.Mutex
	done  map[string]int
	total map[string]int
}

func newProgressTracker(fn ProgressFunc, tasks []task) *progressTracker {
	if fn == nil {
		return nil
	}
	t := &progressTracker{fn: fn, done: map[string]int{}, total: map[string]int{}}
	for _, tk := range tasks {
		t.total[tk.system]++
	}
	return t
}

func (t *progressTracker) taskDone(system string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.done[system]++
	t.fn(system, t.done[system], t.total[system])
	t.mu.Unlock()
}

// systemMisc labels cells of experiments that model ad-hoc machines (the
// Fig. 1 fat tree, the Sec. 6.2 GPU cluster, Eq. 2's pure schedule math);
// systemFugaku labels the torus experiments, which have no System struct.
const (
	systemMisc   = "misc"
	systemFugaku = "fugaku"
)

// SystemKeys returns the valid Options.Systems / -systems selector keys.
func SystemKeys() []string {
	return []string{LUMI().Key, Leonardo().Key, MareNostrum().Key, systemFugaku, systemMisc}
}

// step is one entry of the experiment sequence: its artifact name, the
// system keys it contributes to (the -systems selector keeps a step if any
// of its keys is selected), and its plan compiler.
type step struct {
	name    string
	systems []string
	plan    func(opts Options) (*plan, error)
}

func steps() []step {
	lumi, leo, mare := LUMI(), Leonardo(), MareNostrum()
	return []step{
		{"fig1", []string{systemMisc}, planFig1},
		{"eq2", []string{systemMisc}, planEq2},
		{"fig5", []string{leo.Key, lumi.Key}, planFig5},
		{"table3", []string{lumi.Key}, func(o Options) (*plan, error) { return planTableBinomial(lumi, o) }},
		{"fig9a", []string{lumi.Key}, func(o Options) (*plan, error) { return planHeatmapAllreduce(lumi, o) }},
		{"fig9b", []string{lumi.Key}, func(o Options) (*plan, error) { return planBoxplots(lumi, o) }},
		{"table4", []string{leo.Key}, func(o Options) (*plan, error) { return planTableBinomial(leo, o) }},
		{"fig10a", []string{leo.Key}, func(o Options) (*plan, error) { return planHeatmapAllreduce(leo, o) }},
		{"fig10b", []string{leo.Key}, func(o Options) (*plan, error) { return planBoxplots(leo, o) }},
		{"table5", []string{mare.Key}, func(o Options) (*plan, error) { return planTableBinomial(mare, o) }},
		{"fig11a", []string{mare.Key}, func(o Options) (*plan, error) { return planBoxplots(mare, o) }},
		{"fig11b", []string{systemFugaku}, planFig11b},
		{"fig14", []string{lumi.Key}, planFig14},
		{"hier", []string{systemMisc}, planHier},
		{"ppn", []string{lumi.Key}, planPPN},
		{"appD", []string{systemFugaku}, planAppD},
	}
}

// NormalizeSystems canonicalizes a systems selection (the CLI -systems flag,
// the service's systems= parameter): keys are trimmed and lowercased, blanks
// dropped, duplicates removed, and the result sorted — the selection is a
// set, so order never changes the rendering and the canonical form can key
// request deduplication. Unknown keys and all-blank selections error; an
// empty input returns nil, meaning "select everything".
func NormalizeSystems(keys []string) ([]string, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	valid := map[string]bool{}
	for _, k := range SystemKeys() {
		valid[k] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, k := range keys {
		k = strings.ToLower(strings.TrimSpace(k))
		if k == "" {
			continue
		}
		if !valid[k] {
			return nil, fmt.Errorf("unknown system %q (have %s)", k, strings.Join(SystemKeys(), ", "))
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty system selection (have %s)", strings.Join(SystemKeys(), ", "))
	}
	sort.Strings(out)
	return out, nil
}

// selectSteps filters the sequence by system keys (empty selects all).
func selectSteps(keys []string) ([]step, error) {
	norm, err := NormalizeSystems(keys)
	if err != nil {
		return nil, err
	}
	all := steps()
	if norm == nil {
		return all, nil
	}
	want := map[string]bool{}
	for _, k := range norm {
		want[k] = true
	}
	var out []step
	for _, s := range all {
		for _, key := range s.systems {
			if want[key] {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}

// RunAll executes every experiment (or the Options.Systems selection) in
// paper order. All selected experiments compile up front and their cells
// form one flat job graph drained by a single pool.Runner — cross-system
// sharding, every plan resolving through one Engine — before the artifacts
// render serially, separated exactly as the per-experiment path separates
// them. ctx bounds cell submission and carries the trace the stage timings
// attribute to.
func RunAll(ctx context.Context, w io.Writer, opts Options) error {
	runner := pool.NewRunner(opts.Workers)
	defer runner.Close()
	return RunAllOn(ctx, w, runner, opts)
}

// RunAllOn is RunAll on a caller-owned Runner with context-bounded cell
// submission — the artifact service's path, where one resident process-wide
// pool outlives every request. The rendering is the exact byte sequence
// RunAll emits for the same Options.
func RunAllOn(ctx context.Context, w io.Writer, runner *pool.Runner, opts Options) error {
	opts = opts.withEngine()
	_, endCompile := obs.StartSpan(ctx, obs.StageCompile)
	selected, err := selectSteps(opts.Systems)
	if err != nil {
		endCompile()
		return fmt.Errorf("harness: %w", err)
	}
	plans := make([]*plan, len(selected))
	for i, s := range selected {
		p, err := s.plan(opts)
		if err != nil {
			endCompile()
			return fmt.Errorf("harness: %s: %w", s.name, err)
		}
		plans[i] = p
	}
	endCompile()
	var flat []task
	var flatStep []string
	for i, p := range plans {
		flat = append(flat, p.tasks...)
		for range p.tasks {
			flatStep = append(flatStep, selected[i].name)
		}
	}
	tracker := newProgressTracker(opts.Progress, flat)
	ectx, endExec := obs.StartSpan(ctx, obs.StageExecute)
	if err := runner.ForEachCtx(ectx, len(flat), func(i int) error {
		if err := flat[i].run(ectx); err != nil {
			return fmt.Errorf("harness: %s: %w", flatStep[i], err)
		}
		tracker.taskDone(flat[i].system)
		return nil
	}); err != nil {
		endExec()
		return err
	}
	endExec()
	_, endRender := obs.StartSpan(ctx, obs.StageRender)
	defer endRender()
	for i, p := range plans {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("=", 100))
		}
		if err := p.render(w); err != nil {
			return fmt.Errorf("harness: %s: %w", selected[i].name, err)
		}
	}
	return nil
}

// ExperimentNames returns every experiment name in paper order — the valid
// -experiment values of the CLIs and /artifact/{experiment} endpoints of the
// service (excluding the "all" aggregate, which concatenates them).
func ExperimentNames() []string {
	all := steps()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.name
	}
	return out
}

// Experiment is one compiled experiment held for request-scoped execution:
// independent recording/evaluation cells plus the serial artifact renderer.
// The artifact service compiles the requested plan, drains its cells on the
// resident process-wide Runner, and renders into the response stream.
type Experiment struct {
	name string
	p    *plan
}

// CompileExperiment compiles the named experiment's plan under opts. The
// name must be one of ExperimentNames. The Experiment keeps its Engine
// (opts.Engine, or a fresh default one) for its lifetime, so a second Run
// finds every trace the first resolved.
func CompileExperiment(name string, opts Options) (*Experiment, error) {
	opts = opts.withEngine()
	for _, s := range steps() {
		if s.name == name {
			p, err := s.plan(opts)
			if err != nil {
				return nil, fmt.Errorf("harness: %s: %w", name, err)
			}
			return &Experiment{name: name, p: p}, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", name)
}

// Name returns the experiment's -experiment / endpoint name.
func (e *Experiment) Name() string { return e.name }

// Tasks returns the number of schedulable cells the plan compiled to.
func (e *Experiment) Tasks() int { return len(e.p.tasks) }

// Run drains the experiment's cells on the caller's runner and renders the
// artifact to w — the same serial render pass the batch CLIs use, so the
// bytes are identical to a binebench run of the same experiment at any pool
// width. ctx bounds cell submission: a cancelled request stops dispatching
// new cells (in-flight ones complete, keeping the shared caches consistent).
func (e *Experiment) Run(ctx context.Context, w io.Writer, runner *pool.Runner, progress ProgressFunc) error {
	tracker := newProgressTracker(progress, e.p.tasks)
	ectx, endExec := obs.StartSpan(ctx, obs.StageExecute)
	if err := runner.ForEachCtx(ectx, len(e.p.tasks), func(i int) error {
		if err := e.p.tasks[i].run(ectx); err != nil {
			return err
		}
		tracker.taskDone(e.p.tasks[i].system)
		return nil
	}); err != nil {
		endExec()
		return fmt.Errorf("harness: %s: %w", e.name, err)
	}
	endExec()
	_, endRender := obs.StartSpan(ctx, obs.StageRender)
	defer endRender()
	if err := e.p.render(w); err != nil {
		return fmt.Errorf("harness: %s: %w", e.name, err)
	}
	return nil
}

// RunExperiment compiles and executes one named experiment on a private pool
// of opts.Workers — the single-experiment CLI path. It is the service path
// (CompileExperiment, then Run) on a Runner of its own, so binebench files
// and binebenchd responses for the same request are byte-identical by
// construction (and pinned by tests on both sides).
func RunExperiment(ctx context.Context, w io.Writer, name string, opts Options) error {
	_, endCompile := obs.StartSpan(ctx, obs.StageCompile)
	e, err := CompileExperiment(name, opts)
	endCompile()
	if err != nil {
		return err
	}
	runner := pool.NewRunner(opts.Workers)
	defer runner.Close()
	return e.Run(ctx, w, runner, opts.Progress)
}
