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

// Every experiment compiles to a plan — tasks that may run in any order
// plus a serial render — and an Experiment (one plan, or under "all" every
// selected one) concatenates its plans' tasks into one flat cell list
// drained by a single pool.Runner.

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
// once every task has completed. A render reads only index-addressed slots
// that tasks wrote — its own plan's, or those of a sweep an earlier step of
// the same compile created (safe because Run drains every task before the
// first render) — so the artifact is byte-identical however the tasks
// interleave, drained per experiment or across the whole cross-system graph
// of "all" (pinned by TestShardedRunAllByteIdentical).
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
	plan    func(c *compile) (*plan, error)
}

func steps() []step {
	lumi, leo, mare := LUMI(), Leonardo(), MareNostrum()
	return []step{
		{"fig1", []string{systemMisc}, planFig1},
		{"eq2", []string{systemMisc}, planEq2},
		{"fig5", []string{leo.Key, lumi.Key}, planFig5},
		{"table3", []string{lumi.Key}, func(c *compile) (*plan, error) { return planTableBinomial(c, lumi) }},
		{"fig9a", []string{lumi.Key}, func(c *compile) (*plan, error) { return planHeatmapAllreduce(c, lumi) }},
		{"fig9b", []string{lumi.Key}, func(c *compile) (*plan, error) { return planBoxplots(c, lumi) }},
		{"table4", []string{leo.Key}, func(c *compile) (*plan, error) { return planTableBinomial(c, leo) }},
		{"fig10a", []string{leo.Key}, func(c *compile) (*plan, error) { return planHeatmapAllreduce(c, leo) }},
		{"fig10b", []string{leo.Key}, func(c *compile) (*plan, error) { return planBoxplots(c, leo) }},
		{"table5", []string{mare.Key}, func(c *compile) (*plan, error) { return planTableBinomial(c, mare) }},
		{"fig11a", []string{mare.Key}, func(c *compile) (*plan, error) { return planBoxplots(c, mare) }},
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

// Experiment is a compiled experiment — or, under the name "all", the
// compiled suite — held for request-scoped execution: independent recording
// and evaluation cells plus the serial artifact renderers. A CLI run drains
// it on a pool of its own, the artifact service on its resident process-wide
// Runner, rendering into the response stream.
type Experiment struct {
	name  string
	steps []step
	plans []*plan // index-paired with steps
	// tasks is every plan's cells concatenated in step order — one flat
	// (system × collective × node count × algorithm) list, so the artifact
	// groups of all systems resolve and evaluate concurrently on one pool
	// while sharing one Engine's trace cache; taskStep[i] indexes the step
	// that compiled tasks[i].
	tasks    []task
	taskStep []int
}

// CompileExperiment compiles the named experiment's plan under opts. The
// name is one of ExperimentNames, or "all" for every experiment contributing
// to the opts.Systems selection (empty: the whole suite), in paper order.
// The Experiment keeps its Engine (opts.Engine, or a fresh default one) for
// its lifetime, so a second Run finds every trace the first resolved.
func CompileExperiment(name string, opts Options) (*Experiment, error) {
	c := newCompile(opts)
	e := &Experiment{name: name}
	if name == "all" {
		selected, err := selectSteps(c.Systems)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		e.steps = selected
	} else {
		for _, s := range steps() {
			if s.name == name {
				e.steps = []step{s}
			}
		}
		if e.steps == nil {
			return nil, fmt.Errorf("harness: unknown experiment %q", name)
		}
	}
	for i, s := range e.steps {
		p, err := s.plan(c)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", s.name, err)
		}
		// The sweeps this step created are its cells; the ones it found
		// belong to the earlier step that created them.
		p.tasks, c.cells = append(c.cells, p.tasks...), nil
		e.plans = append(e.plans, p)
		e.tasks = append(e.tasks, p.tasks...)
		for range p.tasks {
			e.taskStep = append(e.taskStep, i)
		}
	}
	return e, nil
}

// Name returns the experiment's -experiment / endpoint name.
func (e *Experiment) Name() string { return e.name }

// Tasks returns the number of schedulable cells the plans compiled to.
func (e *Experiment) Tasks() int { return len(e.tasks) }

// Run drains the experiment's cells on the caller's runner and renders the
// artifacts to w in step order, separated by a rule — the one drain and
// render pass behind the batch CLI, the daemon and the benchmark probe, so
// the bytes are identical across them, at any pool width, and between "all"
// and its experiments run one at a time (pinned by
// TestShardedRunAllByteIdentical). ctx bounds cell submission: a cancelled
// request stops dispatching new cells (in-flight ones complete, keeping the
// shared caches consistent) and its error is returned as is; a failing cell
// or render is reported under its step's name.
func (e *Experiment) Run(ctx context.Context, w io.Writer, runner *pool.Runner, progress ProgressFunc) error {
	tracker := newProgressTracker(progress, e.tasks)
	ectx, endExec := obs.StartSpan(ctx, obs.StageExecute)
	err := runner.ForEachCtx(ectx, len(e.tasks), func(i int) error {
		if err := e.tasks[i].run(ectx); err != nil {
			return fmt.Errorf("harness: %s: %w", e.steps[e.taskStep[i]].name, err)
		}
		tracker.taskDone(e.tasks[i].system)
		return nil
	})
	endExec()
	if err != nil {
		return err
	}
	_, endRender := obs.StartSpan(ctx, obs.StageRender)
	defer endRender()
	for i, p := range e.plans {
		if i > 0 {
			fmt.Fprintln(w, strings.Repeat("=", 100))
		}
		if err := p.render(w); err != nil {
			return fmt.Errorf("harness: %s: %w", e.steps[i].name, err)
		}
	}
	return nil
}

// RunExperiment compiles and executes one named experiment (or "all") on a
// private pool of opts.Workers — the CLI path. It is the service path
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
