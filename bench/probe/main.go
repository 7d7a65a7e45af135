// Command probe is the per-layer side of the repository benchmark: it times
// calls into each module's exported functions from outside, serially, over a
// fixed schedule set, and prints the per-layer metrics and one span per
// call group as JSON. bench (the parent directory) builds and runs it for
// the traced run only, so a change to an internal API can break the probe
// without breaking the end-to-end benchmark, which drives built binaries.
//
// The schedule sets are built from coll.Registry() the way
// harness.planSweep selects schedules: every collective, every algorithm the
// system's MPI does not exclude, every node count, quadratic algorithms
// capped at 512 ranks. "small" is LUMI, Leonardo and MareNostrum at node
// counts <= 128 (what the quick suite and the daemon resolve); "large" is
// every LUMI node count (what -full -systems lumi resolves). Counts are
// exact and repeat bit for bit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"binetrees/bench/span"
	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/harness"
	"binetrees/internal/netsim"
	"binetrees/internal/pool"
	"binetrees/internal/synth"
	"binetrees/internal/topology"
	"binetrees/internal/tracestore"
)

// quadraticCap mirrors harness.blockTraceCap: algorithms whose message count
// grows quadratically are not swept beyond it.
const quadraticCap = 512

// recordBytes is the columnar footprint of one trace record (five int32
// columns): the base of the allocation ratios.
const recordBytes = 20

// schedule is one distinct (collective, algorithm, rank count) schedule.
type schedule struct {
	algo coll.Algorithm
	p    int
}

// job is one evaluation cell: a schedule replayed on one system's placement.
type job struct {
	sys   int
	sched int
}

type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span.Span        `json:"spans"`
}

type probe struct {
	rec     *span.Recorder
	metrics map[string]float64
}

// timed runs fn inside a span and returns its wall time in seconds.
func (pr *probe) timed(name string, fn func() error) (float64, error) {
	id := pr.rec.Start(0, name)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	pr.rec.End(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// allocated returns the bytes fn allocated (runtime TotalAlloc delta).
func allocated(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

func main() {
	set := flag.String("set", "small", "schedule set to walk: small or large")
	tmp := flag.String("tmp", "", "scratch directory for the trace-store calls (must exist)")
	flag.Parse()
	pr := &probe{rec: span.New(""), metrics: map[string]float64{}}
	if err := pr.run(*set, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(output{Metrics: pr.metrics, Spans: pr.rec.Spans()}); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

// setSystems returns the systems and per-system node counts of a set.
func setSystems(set string) ([]harness.System, [][]int, error) {
	switch set {
	case "small":
		systems := []harness.System{harness.LUMI(), harness.Leonardo(), harness.MareNostrum()}
		counts := make([][]int, len(systems))
		for i, sys := range systems {
			for _, p := range sys.NodeCounts {
				if p <= 128 {
					counts[i] = append(counts[i], p)
				}
			}
		}
		return systems, counts, nil
	case "large":
		lumi := harness.LUMI()
		return []harness.System{lumi}, [][]int{lumi.NodeCounts}, nil
	}
	return nil, nil, fmt.Errorf("unknown set %q (have small, large)", set)
}

// buildSet lists the set's distinct schedules and its evaluation jobs.
func buildSet(systems []harness.System, counts [][]int) ([]schedule, []job) {
	var scheds []schedule
	var jobs []job
	index := map[string]int{}
	registry := coll.Registry()
	for si, sys := range systems {
		for _, collective := range coll.Collectives {
			for _, algo := range coll.ByCollective(registry, collective) {
				if sys.ExcludesAlgorithm(algo.Name) {
					continue
				}
				for _, p := range counts[si] {
					switch algo.Name {
					case "bine-block", "swing", "sparbit":
						if p > quadraticCap {
							continue
						}
					}
					key := fmt.Sprintf("%v/%s/%d", collective, algo.Name, p)
					i, ok := index[key]
					if !ok {
						i = len(scheds)
						index[key] = i
						scheds = append(scheds, schedule{algo: algo, p: p})
					}
					jobs = append(jobs, job{sys: si, sched: i})
				}
			}
		}
	}
	return scheds, jobs
}

func storeKey(s schedule) tracestore.Key {
	return tracestore.Key{Kind: "flat", Collective: s.algo.Coll.String(), Algo: s.algo.Name, Shape: strconv.Itoa(s.p), SchedVersion: 1}
}

func (pr *probe) run(set, tmp string) error {
	systems, counts, err := setSystems(set)
	if err != nil {
		return err
	}
	scheds, jobs := buildSet(systems, counts)
	m := pr.metrics
	m["coll.schedules"] = float64(len(scheds))

	// core: every tree and butterfly kind at each distinct rank count.
	sizes := map[int]bool{}
	for _, s := range scheds {
		sizes[s.p] = true
	}
	if m["core.build_s"], err = pr.timed("core.build", func() error {
		for p := range sizes {
			for _, k := range []core.Kind{core.BineDH, core.BineDD, core.BinomialDD, core.BinomialDH} {
				if _, err := core.NewTree(k, p, 0); err != nil {
					return err
				}
			}
			for _, k := range []core.ButterflyKind{core.BflyBineDH, core.BflyBineDD, core.BflyBinomialDH, core.BflyBinomialDD, core.BflySwing} {
				if _, err := core.NewButterfly(k, p); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// coll + synth: pattern construction, then the serial pattern walk.
	patterns := make([]coll.Synthesizer, len(scheds))
	if m["coll.pattern_s"], err = pr.timed("coll.pattern", func() error {
		for i, s := range scheds {
			if patterns[i], err = s.algo.Pattern(s.p, 0, s.p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	traces := make([]*fabric.Trace, len(scheds))
	var synthBytes uint64
	if m["synth.schedule_s"], err = pr.timed("synth.schedule", func() error {
		synthBytes, err = allocated(func() error {
			for i := range scheds {
				if traces[i], err = synth.Schedule(patterns[i]); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	records := 0
	for _, tr := range traces {
		records += tr.NumRecords()
	}
	m["synth.records"] = float64(records)
	m["synth.alloc_ratio"] = float64(synthBytes) / float64(records*recordBytes)

	if err := pr.codecAndStore(scheds, traces, records, tmp); err != nil {
		return err
	}
	if err := pr.record(); err != nil {
		return err
	}
	if err := pr.replay(systems, counts, scheds, jobs, traces); err != nil {
		return err
	}
	return pr.harnessAndPool()
}

// codecAndStore times the write side (encode, save) beside the read side
// (load, prewarm, decode) of the trace codec and store.
func (pr *probe) codecAndStore(scheds []schedule, traces []*fabric.Trace, records int, tmp string) error {
	m := pr.metrics
	var err error
	encoded := make([][]byte, len(traces))
	if m["fabric.encode_s"], err = pr.timed("fabric.encode", func() error {
		for i, tr := range traces {
			var buf bytes.Buffer
			if err := fabric.EncodeTrace(&buf, tr); err != nil {
				return err
			}
			encoded[i] = buf.Bytes()
		}
		return nil
	}); err != nil {
		return err
	}
	total := 0
	for _, raw := range encoded {
		total += len(raw)
	}
	m["fabric.encoded_bytes"] = float64(total)

	var decodeBytes uint64
	if m["fabric.decode_s"], err = pr.timed("fabric.decode", func() error {
		decodeBytes, err = allocated(func() error {
			for _, raw := range encoded {
				if _, err := fabric.DecodeTraceBytes(raw); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	m["fabric.decode_alloc_ratio"] = float64(decodeBytes) / float64(records*recordBytes)

	store, err := tracestore.Open(tmp)
	if err != nil {
		return err
	}
	if m["tracestore.save_s"], err = pr.timed("tracestore.save", func() error {
		for i, s := range scheds {
			if err := store.Save(storeKey(s), traces[i], tracestore.OriginSynthesized); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["tracestore.load_s"], err = pr.timed("tracestore.load", func() error {
		for _, s := range scheds {
			if _, ok := store.Load(storeKey(s)); !ok {
				return fmt.Errorf("stored trace %v/%s p=%d did not load", s.algo.Coll, s.algo.Name, s.p)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["tracestore.prewarm_s"], err = pr.timed("tracestore.prewarm", func() error {
		ps, err := store.Prewarm()
		if err == nil && ps.Valid != len(scheds) {
			err = fmt.Errorf("prewarm validated %d of %d traces", ps.Valid, len(scheds))
		}
		return err
	})
	return err
}

// record executes the small set on the goroutine fabric under a Recorder —
// the -synth=false path — whatever set the other metrics walk.
func (pr *probe) record() error {
	systems, counts, _ := setSystems("small")
	scheds, _ := buildSet(systems, counts)
	var err error
	pr.metrics["fabric.record_s"], err = pr.timed("fabric.record", func() error {
		for _, s := range scheds {
			run, err := s.algo.Make(s.p, 0)
			if err != nil {
				return err
			}
			rec := fabric.NewRecorder(fabric.NewMem(s.p))
			err = fabric.Run(rec, func(c fabric.Comm) error {
				inLen, outLen := s.algo.Coll.InOutLens(s.p, s.p)
				in := make([]int32, inLen)
				var out []int32
				if outLen > 0 {
					out = make([]int32, outLen)
				}
				return run(c, 0, in, out, coll.OpSum)
			})
			rec.Trace()
			rec.Close()
			if err != nil {
				return fmt.Errorf("%v/%s p=%d: %w", s.algo.Coll, s.algo.Name, s.p, err)
			}
		}
		return nil
	})
	return err
}

// replay times topology construction, the route cache (first touch of every
// pair the set's traces use, then the hit path) and netsim evaluation of
// every job at the nine vector sizes, as harness.planSweep's cells do.
func (pr *probe) replay(systems []harness.System, counts [][]int, scheds []schedule, jobs []job, traces []*fabric.Trace) error {
	m := pr.metrics
	placements := make([]map[int][]int, len(systems))
	topos := make([]map[int]topology.Topology, len(systems))
	var err error
	for si, sys := range systems {
		if placements[si], err = harness.Placements(sys, counts[si]); err != nil {
			return err
		}
	}
	if m["topology.build_s"], err = pr.timed("topology.build", func() error {
		for si, sys := range systems {
			topos[si] = map[int]topology.Topology{}
			for _, p := range counts[si] {
				if topos[si][p], err = sys.TopologyFor(placements[si][p]); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The distinct (src, dst) node pairs each topology's jobs route.
	type pairs struct {
		rc       *topology.RouteCache
		src, dst []int
	}
	var routed []pairs
	for si := range systems {
		for _, p := range counts[si] {
			seen := make([]bool, p*p)
			pl := placements[si][p]
			ps := pairs{rc: topos[si][p].Routes()}
			for _, j := range jobs {
				if j.sys != si || scheds[j.sched].p != p {
					continue
				}
				tr := traces[j.sched]
				for i := 0; i < tr.NumRecords(); i++ {
					from, to := tr.From(i), tr.To(i)
					if !seen[from*p+to] {
						seen[from*p+to] = true
						ps.src = append(ps.src, pl[from])
						ps.dst = append(ps.dst, pl[to])
					}
				}
			}
			routed = append(routed, ps)
		}
	}
	touch := func() error {
		for _, ps := range routed {
			for i := range ps.src {
				ps.rc.Route(ps.src[i], ps.dst[i])
			}
		}
		return nil
	}
	if m["topology.route_fill_s"], err = pr.timed("topology.route_fill", touch); err != nil {
		return err
	}
	npairs := 0
	for _, ps := range routed {
		npairs += len(ps.src)
	}
	hit, err := pr.timed("topology.route_hit", touch)
	if err != nil {
		return err
	}
	m["topology.route_hit_ns"] = hit * 1e9 / float64(npairs)

	vec := harness.VectorSizes()
	evaluated := 0
	var evalBytes uint64
	if m["netsim.evaluate_s"], err = pr.timed("netsim.evaluate", func() error {
		evalBytes, err = allocated(func() error {
			for _, j := range jobs {
				s, sys := scheds[j.sched], systems[j.sys]
				elemBytes := make([]float64, len(vec))
				copyBytes := make([]float64, len(vec))
				for i, size := range vec {
					elemBytes[i] = float64(size) / float64(s.p)
					copyBytes[i] = s.algo.CopyFactor * float64(size)
				}
				if _, err := netsim.EvaluateSizes(traces[j.sched], topos[j.sys][s.p], sys.Params, netsim.Eval{
					Placement:   placements[j.sys][s.p],
					Reduces:     s.algo.Coll.Reduces(),
					Overlap:     s.algo.Overlap,
					CopyBytesAt: copyBytes,
				}, elemBytes); err != nil {
					return err
				}
				evaluated += traces[j.sched].NumRecords()
			}
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	m["netsim.records_per_s"] = float64(evaluated) / m["netsim.evaluate_s"]
	m["netsim.alloc_bytes"] = float64(evalBytes)

	// The other route family: one torus allreduce on the Fugaku {8,8,8} job.
	dims := []int{8, 8, 8}
	tor, err := core.NewTorus(dims...)
	if err != nil {
		return err
	}
	n := tor.P() * 2 * tor.NDims()
	torusTrace, err := synth.Run(tor.P(), func(c fabric.Comm) error {
		return coll.TorusAllreduce(c, tor, make([]int32, n), coll.OpSum)
	})
	if err != nil {
		return err
	}
	torusTopo, err := harness.FugakuTopology(dims)
	if err != nil {
		return err
	}
	identity := make([]int, tor.P())
	for i := range identity {
		identity[i] = i
	}
	elemBytes := make([]float64, len(vec))
	for i, size := range vec {
		elemBytes[i] = float64(size) / float64(n)
	}
	m["netsim.evaluate_torus_s"], err = pr.timed("netsim.evaluate_torus", func() error {
		_, err := netsim.EvaluateSizes(torusTrace, torusTopo, harness.FugakuParams(), netsim.Eval{Placement: identity, Reduces: true}, elemBytes)
		return err
	})
	return err
}

// dispatchJobs is how many no-op jobs pool.dispatch_ns averages over.
const dispatchJobs = 200000

// harnessAndPool times the allocator churn replay behind every sweep plan
// (harness.Placements, once per system), plan compilation and warm execution of the sixteen
// quick experiments on a resident two-worker Runner — what every daemon
// request and a third of a quick CLI run do — and the pool's per-job cost.
func (pr *probe) harnessAndPool() error {
	m := pr.metrics
	var err error
	if m["harness.placements_s"], err = pr.timed("harness.placements", func() error {
		for _, sys := range []harness.System{harness.LUMI(), harness.Leonardo(), harness.MareNostrum()} {
			if _, err := harness.Placements(sys, sys.NodeCounts); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	opts := harness.Options{Quick: true, Workers: 2}
	names := harness.ExperimentNames()
	experiments := make([]*harness.Experiment, len(names))
	if m["harness.compile_s"], err = pr.timed("harness.compile", func() error {
		for i, name := range names {
			if experiments[i], err = harness.CompileExperiment(name, opts); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	tasks := 0
	for _, e := range experiments {
		tasks += e.Tasks()
	}
	m["harness.tasks"] = float64(tasks)

	runner := pool.NewRunner(opts.Workers)
	defer runner.Close()
	ctx := context.Background()
	var rendered bytes.Buffer
	runAll := func() error {
		rendered.Reset()
		for _, e := range experiments {
			if err := e.Run(ctx, &rendered, runner, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err = pr.timed("harness.run_cold", runAll); err != nil { // fills the memory tier
		return err
	}
	if m["harness.run_warm_s"], err = pr.timed("harness.run_warm", runAll); err != nil {
		return err
	}
	m["harness.render_bytes"] = float64(rendered.Len())

	dispatch, err := pr.timed("pool.dispatch", func() error {
		return runner.ForEach(dispatchJobs, func(int) error { return nil })
	})
	m["pool.dispatch_ns"] = dispatch * 1e9 / dispatchJobs
	return err
}
