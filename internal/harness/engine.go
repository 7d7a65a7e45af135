package harness

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"binetrees/internal/coll"
	"binetrees/internal/core"
	"binetrees/internal/fabric"
	"binetrees/internal/obs"
	"binetrees/internal/synth"
	"binetrees/internal/tracestore"
)

// The harness re-evaluates the same algorithm schedule across vector sizes,
// placements and even systems: a trace depends only on its schedule identity
// — (collective, algorithm, rank count, root), plus geometry for torus
// schedules — and netsim's linear rescaling (TestTraceScalingExact) makes
// one unit-granularity recording exact for every vector size. An Engine
// resolves each schedule exactly once, no matter how many sweep cells —
// possibly on concurrent workers — ask for it.

// schedVersion tags the generation of every schedule construction that
// feeds the trace caches. It joins each disk content address, so bumping it
// — required whenever any algorithm's schedule changes — cleanly orphans
// every previously stored trace instead of wrongly reusing it.
const schedVersion = 2

// Engine is the trace resolver chain as one value: the in-process memory
// tier, the optional disk tier, the synthesis mode and the counters that
// describe what each tier served. A CLI run or an artifact server constructs
// one and hands it to its plans through Options.Engine; everything an Engine
// caches dies with it, so a fresh Engine is a cold start and two Engines in
// one process share nothing. The zero value is ready to use: no disk tier,
// synthesis on. Set the exported fields before the first resolution and not
// afterwards; methods are safe for concurrent use.
type Engine struct {
	// Store is the disk tier, persisting resolved traces across processes
	// under content addresses: misses of the memory tier consult it before
	// resolving, and resolved traces are written through. A loaded trace is
	// byte-for-byte the resolved one, so artifacts are identical at any
	// cache state. Nil disables the tier.
	Store *tracestore.Store
	// DisableSynth turns off direct schedule synthesis: every cold schedule
	// executes on the recording goroutine fabric — the pre-synthesis
	// behavior, kept as the oracle path for equivalence checks
	// (TestSynthMatchesRecordedOracle compares the two Engines' traces).
	DisableSynth bool

	mu     sync.Mutex
	traces map[tracestore.Key]*traceEntry

	memHits      atomic.Uint64
	synthHits    atomic.Uint64
	records      atomic.Uint64
	cachedTraces atomic.Uint64
	cachedBytes  atomic.Uint64
}

type traceEntry struct {
	once sync.Once
	tr   *fabric.Trace
	err  error
	// origin names the resolver tier that produced tr (obs.OriginStore /
	// OriginSynth / OriginRecord), written inside once.Do and read only after
	// it returns; waiters that found the entry report obs.OriginMemory.
	origin obs.Origin
}

// CacheStats snapshots the trace-cache counters: per-tier hits, the
// recordings performed, and the disk tier's write and eviction activity.
type CacheStats struct {
	// MemoryHits counts lookups served by the in-process tier without
	// recording or touching disk.
	MemoryHits uint64
	// DiskHits and DiskMisses count store lookups by in-process misses (a
	// corrupt file is a miss).
	DiskHits, DiskMisses uint64
	// SynthHits counts schedules resolved by direct synthesis from schedule
	// math — no goroutine fabric involved.
	SynthHits uint64
	// Records counts schedules actually executed under a recording fabric
	// — the expensive path; with synthesis on, a cold run keeps it at zero.
	Records uint64
	// DiskSaves counts traces written through to the store.
	DiskSaves uint64
	// CorruptEvictions counts store files that failed to decode and were
	// removed (their slots re-record and re-save transparently).
	CorruptEvictions uint64
	// CachedTraces and CachedBytes size the in-process tier: resident
	// traces and their columnar footprint (fabric.Trace.MemBytes) — the
	// number to watch when sizing hosts for full-scale suites.
	CachedTraces, CachedBytes uint64
	// DiskSaveSkips counts write-behind saves dropped while the disk tier
	// was degraded; StoreDegraded and StoreDegradedReason report that state
	// (read-only dir, full disk — serving continues from memory/synth).
	DiskSaveSkips       uint64
	StoreDegraded       bool
	StoreDegradedReason string
}

func (s CacheStats) String() string {
	out := fmt.Sprintf("trace cache: %d memory hits, %d disk hits, %d disk misses, %d synthesized, %d recordings, %d disk saves, %d corrupt evictions; %d resident traces, %.1f MiB columnar",
		s.MemoryHits, s.DiskHits, s.DiskMisses, s.SynthHits,
		s.Records, s.DiskSaves, s.CorruptEvictions,
		s.CachedTraces, float64(s.CachedBytes)/(1<<20))
	if s.StoreDegraded {
		out += fmt.Sprintf("; store DEGRADED (%s, %d saves skipped)", s.StoreDegradedReason, s.DiskSaveSkips)
	}
	return out
}

// Stats snapshots the Engine's counters (the disk counters are the
// Store's own, so they span every Engine the store was handed to).
func (eng *Engine) Stats() CacheStats {
	ds := eng.Store.Stats()
	return CacheStats{
		MemoryHits:       eng.memHits.Load(),
		DiskHits:         ds.Hits,
		DiskMisses:       ds.Misses,
		SynthHits:        eng.synthHits.Load(),
		Records:          eng.records.Load(),
		DiskSaves:        ds.Saves,
		CorruptEvictions: ds.CorruptEvictions,
		CachedTraces:     eng.cachedTraces.Load(),
		CachedBytes:      eng.cachedBytes.Load(),

		DiskSaveSkips:       ds.SaveSkips,
		StoreDegraded:       ds.Degraded,
		StoreDegradedReason: ds.DegradedReason,
	}
}

// cachedTraceKey is the cache core: it resolves the trace for the schedule
// identity key through the resolver chain — the in-process tier, then the
// disk store, then one cold leg: direct synthesis from schedule math
// (synthesize), or with DisableSynth a recording run on the goroutine fabric
// (record) — exactly once per key per Engine, however many concurrent workers
// ask. A synthesis error fails the request exactly as a failed recording
// does: every error the pattern walk can return comes from the same
// Make/body/Send validation the recording would hit, so a second attempt on
// the fabric could only double the time to fail and hide a walker bug.
// Resolved traces are written through to the store stamped with their
// origin; failed resolutions are never written anywhere and their in-process
// slot is evicted so a later request retries.
//
// ctx carries the request trace, if any: each resolver stage the leader runs
// (store-load, synth, fabric-record, store-save) is timed into the global
// stage histograms and the trace's aggregates; waiters served from the
// in-process tier — including time blocked on a concurrent leader — report
// under cache-lookup. The whole resolution lands in the per-origin resolve metrics.
func (eng *Engine) cachedTraceKey(ctx context.Context, key tracestore.Key, synthesize, record func() (*fabric.Trace, error)) (*fabric.Trace, error) {
	resolveStart := time.Now()
	eng.mu.Lock()
	if eng.traces == nil {
		eng.traces = map[tracestore.Key]*traceEntry{}
	}
	e, ok := eng.traces[key]
	if !ok {
		e = &traceEntry{}
		eng.traces[key] = e
	}
	eng.mu.Unlock()
	e.once.Do(func() {
		s := eng.Store
		loadStart := time.Now()
		tr, hit := s.Load(key)
		if s.Enabled() {
			obs.ObserveStageCtx(ctx, obs.StageStoreLoad, time.Since(loadStart))
		}
		var stamp tracestore.Origin // provenance of a cold resolution
		switch {
		case hit:
			e.tr, e.origin = tr, obs.OriginStore
		case eng.DisableSynth:
			eng.records.Add(1)
			recordStart := time.Now()
			e.tr, e.err = record()
			obs.ObserveStageCtx(ctx, obs.StageRecord, time.Since(recordStart))
			e.origin, stamp = obs.OriginRecord, tracestore.OriginRecorded
		default:
			synthStart := time.Now()
			e.tr, e.err = synthesize()
			obs.ObserveStageCtx(ctx, obs.StageSynth, time.Since(synthStart))
			e.origin, stamp = obs.OriginSynth, tracestore.OriginSynthesized
			if e.err == nil {
				eng.synthHits.Add(1)
			}
		}
		if e.err != nil {
			return
		}
		if !hit && s.Enabled() {
			// Write-behind is best-effort: a read-only or full cache
			// directory degrades to re-resolving next process, never to a
			// failed sweep.
			saveStart := time.Now()
			_ = s.Save(key, e.tr, stamp)
			obs.ObserveStageCtx(ctx, obs.StageStoreSave, time.Since(saveStart))
		}
		eng.cachedTraces.Add(1)
		eng.cachedBytes.Add(uint64(e.tr.MemBytes()))
	})
	if e.err != nil {
		// A timed-out or otherwise failed resolution must not poison the
		// key (mirroring how corrupt store files self-evict): drop the
		// entry — unless a retry already replaced it — so the next request
		// resolves afresh. Concurrent waiters on this entry still see the
		// original error.
		eng.mu.Lock()
		if eng.traces[key] == e {
			delete(eng.traces, key)
		}
		eng.mu.Unlock()
		return nil, fmt.Errorf("harness: %s %s/%s shape=%s root=%d: %w",
			key.Kind, key.Collective, key.Algo, key.Shape, key.Root, e.err)
	}
	origin := e.origin
	if ok {
		// A memory hit is only counted once the found entry has resolved
		// successfully: waiters that pile onto a mid-recording entry which
		// then errors and evicts were never served from the warm tier, and
		// counting them made -v over-report warm hits under concurrency.
		eng.memHits.Add(1)
		obs.ObserveStageCtx(ctx, obs.StageCacheLookup, time.Since(resolveStart))
		origin = obs.OriginMemory
	}
	obs.ObserveResolve(ctx, origin, time.Since(resolveStart))
	return e.tr, nil
}

// A schedule reaches the resolver as what its executor reads, handed to both
// cold legs, so the oracle and the synthesizer cannot drift apart in what
// they execute. A registry algorithm — flat (coll.Registry) or torus
// (coll.TorusRegistry) — synthesizes through Algorithm.Pattern: the plan its
// executor loops over where it has one, otherwise a walk of its Make body on
// one shared buffer pair; it records by running that executor on the
// goroutine fabric. Fig. 5's butterfly allreduces synthesize from their plan
// the same way. Every other schedule is one per-rank body: synth.Run walks it
// serially over pattern endpoints, and record runs it on the goroutine
// fabric.

// record executes a schedule body on the recording goroutine fabric: the
// DisableSynth leg, which is the oracle the synthesizer is tested against.
func record(p int, body func(c fabric.Comm) error) (*fabric.Trace, error) {
	rec := fabric.NewRecorder(fabric.NewMem(p))
	defer rec.Close()
	if err := fabric.Run(rec, body); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}

// cachedAlgo resolves under key the trace of a registry algorithm over p
// ranks with root root and n vector elements: synthesized from its Pattern,
// or recorded by running its Make body with OpSum. A recording runs its
// ranks concurrently, so unlike a walk each rank gets fresh zero vectors
// sized by the InOutLens convention (only send lengths reach a trace).
func (eng *Engine) cachedAlgo(ctx context.Context, key tracestore.Key, algo coll.Algorithm, p, root, n int) (*fabric.Trace, error) {
	return eng.cachedTraceKey(ctx, key,
		func() (*fabric.Trace, error) {
			s, err := algo.Pattern(p, root, n)
			if err != nil {
				return nil, err
			}
			return synth.Schedule(s)
		},
		func() (*fabric.Trace, error) {
			run, err := algo.Make(p, root)
			if err != nil {
				return nil, err
			}
			inLen, outLen := algo.Coll.InOutLens(p, n)
			return record(p, func(c fabric.Comm) error {
				var out []int32
				if outLen > 0 {
					out = make([]int32, outLen)
				}
				return run(c, root, make([]int32, inLen), out, coll.OpSum)
			})
		})
}

// cachedTrace returns a registry algorithm's unit-granularity trace (n = p
// elements). Its synthesized and recorded forms are byte-identical under the
// trace codec for every registered algorithm (internal/synth's equivalence
// suite and TestSynthMatchesRecordedOracle).
func (eng *Engine) cachedTrace(ctx context.Context, algo coll.Algorithm, p, root int) (*fabric.Trace, error) {
	return eng.cachedAlgo(ctx, tracestore.Key{
		Kind:         "flat",
		Collective:   algo.Coll.String(),
		Algo:         algo.Name,
		Shape:        strconv.Itoa(p),
		Root:         root,
		SchedVersion: schedVersion,
	}, algo, p, root, p)
}

// cachedTorusTrace is cachedTrace for an algorithm of coll.TorusRegistry(tor):
// the torus shape and the recorded element count (torusRecordedElems) join
// the identity.
func (eng *Engine) cachedTorusTrace(ctx context.Context, algo coll.Algorithm, tor core.Torus, root int) (*fabric.Trace, error) {
	n := torusRecordedElems(tor)
	return eng.cachedAlgo(ctx, tracestore.Key{
		Kind:         "torus",
		Collective:   algo.Coll.String(),
		Algo:         algo.Name,
		Shape:        fmt.Sprintf("%v/n=%d", tor.Dims, n),
		Root:         root,
		SchedVersion: schedVersion,
	}, algo, tor.P(), root, n)
}

// cachedNamedTrace caches ad-hoc schedules that no registry covers (the
// Fig. 1 tree broadcasts, hierarchical and Appendix D schedules):
// kind/name/shape must uniquely identify the schedule body fn over p ranks,
// including its recorded element count. Every such body is data-independent,
// so the resolver synthesizes it with a serial pattern walk and touches the
// fabric only with synthesis disabled.
func (eng *Engine) cachedNamedTrace(ctx context.Context, kind, name, shape string, p int, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	return eng.cachedTraceKey(ctx, namedKey(kind, name, shape),
		func() (*fabric.Trace, error) { return synth.Run(p, fn) },
		func() (*fabric.Trace, error) { return record(p, fn) })
}

// cachedNamedPlan is cachedNamedTrace for an ad-hoc schedule with a plan
// (the Fig. 5 butterfly allreduces): the synthesis leg runs s, the plan fn
// executes, and only the recording leg runs fn.
func (eng *Engine) cachedNamedPlan(ctx context.Context, kind, name, shape string, p int, s coll.Synthesizer, fn func(c fabric.Comm) error) (*fabric.Trace, error) {
	return eng.cachedTraceKey(ctx, namedKey(kind, name, shape),
		func() (*fabric.Trace, error) { return synth.Schedule(s) },
		func() (*fabric.Trace, error) { return record(p, fn) })
}

func namedKey(kind, name, shape string) tracestore.Key {
	return tracestore.Key{
		Kind:         kind,
		Algo:         name,
		Shape:        shape,
		SchedVersion: schedVersion,
	}
}
