// Package netsim replays recorded communication traces (fabric.Trace)
// against topology models to estimate completion time and to account
// global-link traffic — the substitute for the paper's wall-clock
// measurements on LUMI, Leonardo, MareNostrum 5 and Fugaku.
//
// The model is LogGP-flavoured with link contention: messages that share a
// step are concurrent; each link serializes the bytes routed through it; the
// step's duration is the worst latency plus the worst per-sender message
// overhead plus the most-loaded link's transfer time; steps are summed.
// Because every message's size in these collectives is exactly linear in the
// block size, a trace recorded at unit block granularity can be rescaled to
// any vector size without re-running the collective (validated by
// TestTraceScalingExact).
//
// The replay is allocation-free per message: traces are iterated straight
// off their columnar step index, each distinct step body (fabric.Trace's
// step class) is replayed once however many steps repeat it, and each
// message pair's route is computed into a reused buffer
// (topology.Topology.AppendRoute: a few integers of arithmetic, an O(hops)
// walk on a torus — nothing is cached or shared, so any number of cells
// replay against one topology instance without synchronization). The
// per-class aggregates live in dense generation-stamped scratch slices sized
// by the topology's link count, and that scratch is reused across calls, not
// only across classes: a replay takes it from a sync.Pool (the package's one
// package-level variable, an allocation cache only), so a 16-rank cell on a
// whole-machine model does not allocate and zero a link-count-sized array.
// The generation counter carries across calls, so nothing is cleared between
// calls or classes; the stamps are cleared once only when the counter would
// pass math.MaxInt32 (scratch.reserve). A stamp never exceeds the counter,
// so stale entries are invisible and no result depends on the pool.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// Params are the machine constants of the cost model.
type Params struct {
	// AlphaLocal and AlphaGlobal are per-step base latencies (seconds)
	// for intra-group and inter-group messages; global links are longer
	// and slower to start on (Sec. 1 of the paper).
	AlphaLocal, AlphaGlobal float64
	// PerHopLatency is added per traversed link beyond injection/ejection
	// (relevant for tori).
	PerHopLatency float64
	// MsgOverhead is the sender-side cost of each additional message
	// within a step (block-by-block transmissions pay it).
	MsgOverhead float64
	// Gamma is the per-byte reduction compute cost (seconds/byte).
	Gamma float64
	// MemBW is the local copy bandwidth (bytes/s) charged for
	// permute-strategy buffer shuffles.
	MemBW float64
}

// Eval describes one evaluation of a recorded trace.
type Eval struct {
	// Placement maps rank → node.
	Placement []int
	// Reduces marks collectives that fold incoming data (reduce,
	// reduce-scatter, allreduce): received bytes are charged Gamma.
	Reduces bool
	// Overlap in [0,1] discounts reduction compute that hides behind
	// communication (segmented/block-by-block variants overlap well).
	Overlap float64
	// CopyBytes charges extra local data movement (permute strategies),
	// already scaled to bytes.
	CopyBytes float64
	// CopyBytesAt optionally gives EvaluateSizes a per-size copy cost,
	// index-paired with its elemBytes argument (CopyBytes covers every
	// size otherwise).
	CopyBytesAt []float64
}

// Result summarizes one evaluation.
type Result struct {
	// Time is the modelled completion time in seconds.
	Time float64
	// GlobalBytes is the total traffic crossing global links (the
	// paper's headline metric); for tori it is byte·hops.
	GlobalBytes float64
	// TotalBytes is the total payload volume sent by all ranks.
	TotalBytes float64
	// Steps is the number of synchronous steps.
	Steps int
	// Messages is the total message count.
	Messages int
}

// loadClass is the heaviest per-step link load within one bandwidth class,
// in recorded elements. Loads in elems scale to any ElemBytes, and — because
// IEEE multiplication and division are correctly rounded, hence monotone —
// the most-loaded link of a class at unit scale stays the most loaded at
// every scale, so one (elems, bw) pair per class reproduces the per-link
// maximum exactly.
type loadClass struct {
	elems int64
	bw    float64
}

// stepProfile captures everything a trace step contributes to the cost model
// except the element scale: structural integer quantities plus the bandwidth
// classes of its link loads.
type stepProfile struct {
	// hasLocal records a message whose route crosses no global link;
	// maxHops is the most global links any message traverses. Together
	// they determine the step's base latency for any Params.
	hasLocal bool
	maxHops  int
	// maxMsgs is the most messages any single sender emits.
	maxMsgs int
	// maxRecvElems is the most elements any single rank receives (charged
	// Gamma when the collective reduces).
	maxRecvElems int64
	loads        []loadClass
}

// traceProfile is the element-scale-independent replay of a trace on a
// topology under a placement: one pass over routes and link loads from which
// every vector size's Result derives arithmetically.
type traceProfile struct {
	steps                   []stepProfile
	totalElems, globalElems int64
	messages                int
}

// classProfile is one step class's contribution, computed once and charged
// to every step of the class.
type classProfile struct {
	sp                      stepProfile
	totalElems, globalElems int64
	messages                int
	done                    bool
}

// scratch is one replay's dense working set, reused across replays through
// scratchPool. Entry i of a value slice is live for the class being replayed
// iff its stamp (the matching *Gen slice) equals the class's generation, so
// only touched entries are ever visited. The slices grow to the largest link
// table and rank count replayed and are never shrunk; every stamp is at
// most gen.
type scratch struct {
	gen              int32 // the last generation reserved
	loadVal          []int64
	loadGen          []int32
	touched          []int32 // link IDs loaded by the current class
	recvVal          []int64
	recvGen          []int32
	sendCnt, sendGen []int32
	route            []int32
}

// scratchPool caches scratch values between replays; a pooled scratch's
// contents are all stale to its next replay's generations.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reserve sizes the scratch for a replay of classes step classes over
// nLinks links and p ranks (receive volumes only when reduces) and returns
// the generation before the replay's first: class c replays under
// generation base+c+1. When that range would pass math.MaxInt32, the stamps
// are cleared and the counter restarts at 0 first.
func (s *scratch) reserve(nLinks, p, classes int, reduces bool) (base int32) {
	if len(s.loadGen) < nLinks {
		s.loadVal, s.loadGen = make([]int64, nLinks), make([]int32, nLinks)
	}
	if len(s.sendGen) < p {
		s.sendCnt, s.sendGen = make([]int32, p), make([]int32, p)
	}
	if reduces && len(s.recvGen) < p {
		s.recvVal, s.recvGen = make([]int64, p), make([]int32, p)
	}
	if int64(s.gen)+int64(classes) > math.MaxInt32 {
		clear(s.loadGen)
		clear(s.recvGen)
		clear(s.sendGen)
		s.gen = 0
	}
	base = s.gen
	s.gen += int32(classes)
	return base
}

// profile replays the trace once, accumulating link loads and received
// volumes as exact integer element counts. Steps of one class have equal
// bodies, so each class is replayed once, at its first step, and its
// stepProfile and totals are appended and added once per step, in step
// order. The per-class aggregates — link loads, per-receiver volumes,
// per-sender message counts — and the route buffer live in sc, stamped with
// the class's generation out of the range sc.reserve hands this call, so
// neither moving to the next class nor starting the next call resets
// anything. Beyond sc the replay allocates only the profile it returns and
// touches no state shared with other goroutines replaying against the same
// topo; sc must not be shared while the call runs.
func profile(tr *fabric.Trace, topo topology.Topology, ev Eval, sc *scratch) (*traceProfile, error) {
	if len(ev.Placement) < tr.P {
		return nil, fmt.Errorf("netsim: placement covers %d of %d ranks", len(ev.Placement), tr.P)
	}
	base := sc.reserve(topo.NumLinks(), tr.P, tr.NumClasses(), ev.Reduces)
	loadVal, loadGen := sc.loadVal, sc.loadGen
	recvVal, recvGen := sc.recvVal, sc.recvGen
	sendCnt, sendGen := sc.sendCnt, sc.sendGen
	touched, route := sc.touched, sc.route

	numSteps := tr.NumSteps()
	classes := make([]classProfile, tr.NumClasses())
	pf := &traceProfile{steps: make([]stepProfile, 0, numSteps)}
	lastSrc, lastDst := -1, -1
	for s := 0; s < numSteps; s++ {
		lo, hi := tr.StepBounds(s)
		if lo == hi {
			continue
		}
		class := tr.StepClass(s)
		cp := &classes[class]
		if !cp.done {
			cp.done = true
			gen := base + int32(class) + 1
			touched = touched[:0]
			sp := stepProfile{maxHops: -1}
			for i := lo; i < hi; i++ {
				from, to := tr.From(i), tr.To(i)
				src, dst := ev.Placement[from], ev.Placement[to]
				elems := int64(tr.Elems(i))
				cp.totalElems += elems
				cp.messages++
				// Consecutive records very often repeat a pair (sub-message
				// runs); those reuse the route already in the buffer.
				if src != lastSrc || dst != lastDst {
					route = topo.AppendRoute(route[:0], src, dst)
					lastSrc, lastDst = src, dst
				}
				for _, id := range route {
					if loadGen[id] != gen {
						loadGen[id] = gen
						loadVal[id] = 0
						touched = append(touched, id)
					}
					loadVal[id] += elems
				}
				// Every link between a route's injection and ejection links
				// is global (topology.Topology.AppendRoute).
				hops := max(len(route)-2, 0)
				cp.globalElems += elems * int64(hops)
				if hops == 0 {
					sp.hasLocal = true
				}
				if hops > sp.maxHops {
					sp.maxHops = hops
				}
				if ev.Reduces {
					if recvGen[to] != gen {
						recvGen[to] = gen
						recvVal[to] = 0
					}
					recvVal[to] += elems
					if recvVal[to] > sp.maxRecvElems {
						sp.maxRecvElems = recvVal[to]
					}
				}
				if sendGen[from] != gen {
					sendGen[from] = gen
					sendCnt[from] = 0
				}
				sendCnt[from]++
				if int(sendCnt[from]) > sp.maxMsgs {
					sp.maxMsgs = int(sendCnt[from])
				}
			}
			// Collapse the per-link loads to one heaviest load per bandwidth
			// class; topologies have a handful of classes, so the per-size
			// derivation touches a few pairs instead of every link.
			for _, id := range touched {
				load := loadVal[id]
				if load == 0 {
					continue
				}
				bw := topo.LinkBW(id)
				found := false
				for ci := range sp.loads {
					if sp.loads[ci].bw == bw {
						if load > sp.loads[ci].elems {
							sp.loads[ci].elems = load
						}
						found = true
						break
					}
				}
				if !found {
					sp.loads = append(sp.loads, loadClass{elems: load, bw: bw})
				}
			}
			cp.sp = sp
		}
		pf.steps = append(pf.steps, cp.sp)
		pf.totalElems += cp.totalElems
		pf.globalElems += cp.globalElems
		pf.messages += cp.messages
	}
	sc.touched, sc.route = touched, route // keep the grown buffers
	return pf, nil
}

// result derives one element scale's Result from the profile, mirroring the
// replaying evaluator's arithmetic step by step.
func (pf *traceProfile) result(p Params, ev Eval, elemBytes, copyBytes float64) Result {
	res := Result{
		Steps:       len(pf.steps),
		Messages:    pf.messages,
		TotalBytes:  float64(pf.totalElems) * elemBytes,
		GlobalBytes: float64(pf.globalElems) * elemBytes,
	}
	for _, sp := range pf.steps {
		alpha := 0.0
		if sp.hasLocal {
			alpha = p.AlphaLocal
		}
		if sp.maxHops >= 1 {
			a := p.AlphaGlobal
			if sp.maxHops > 1 {
				a += float64(sp.maxHops-1) * p.PerHopLatency
			}
			if a > alpha {
				alpha = a
			}
		}
		worst := 0.0
		for _, lc := range sp.loads {
			if t := float64(lc.elems) * elemBytes / lc.bw; t > worst {
				worst = t
			}
		}
		stepTime := alpha + worst
		if sp.maxMsgs > 1 {
			stepTime += float64(sp.maxMsgs-1) * p.MsgOverhead
		}
		if ev.Reduces && sp.maxRecvElems > 0 {
			stepTime += float64(sp.maxRecvElems) * elemBytes * p.Gamma * (1 - ev.Overlap)
		}
		res.Time += stepTime
	}
	if copyBytes > 0 && p.MemBW > 0 {
		res.Time += copyBytes / p.MemBW
	}
	return res
}

// EvaluateSizes replays the trace on the topology and scores it at every
// element scale of elemBytes: each entry scales every recorded element to
// bytes — a trace recorded with b₀ blocks of one element evaluates at vector
// size n bytes with n / (number of recorded elements per vector). The
// structural pass over routes and link loads runs once, and each size's
// Result is derived from it arithmetically — exactly, not approximately (the
// seed's per-message evaluator in reference_test.go is the oracle). Per-size
// copy costs come from ev.CopyBytesAt (index-paired with elemBytes) when set,
// ev.CopyBytes otherwise.
func EvaluateSizes(tr *fabric.Trace, topo topology.Topology, p Params, ev Eval, elemBytes []float64) ([]Result, error) {
	if ev.CopyBytesAt != nil && len(ev.CopyBytesAt) != len(elemBytes) {
		return nil, fmt.Errorf("netsim: %d copy costs for %d sizes", len(ev.CopyBytesAt), len(elemBytes))
	}
	sc := scratchPool.Get().(*scratch)
	pf, err := profile(tr, topo, ev, sc)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(elemBytes))
	for i, eb := range elemBytes {
		copyBytes := ev.CopyBytes
		if ev.CopyBytesAt != nil {
			copyBytes = ev.CopyBytesAt[i]
		}
		out[i] = pf.result(p, ev, eb, copyBytes)
	}
	return out, nil
}

// GlobalTraffic is the traffic-only fast path used by the Fig. 5 allocation
// study: it returns the bytes crossing group boundaries (unit element size)
// given a rank → group map, with no link model at all. Each step class is
// summed once and its sums added once per step, like profile's replay.
func GlobalTraffic(tr *fabric.Trace, groupOf []int) (global, total int64) {
	type sums struct {
		global, total int64
		done          bool
	}
	classes := make([]sums, tr.NumClasses())
	for s := 0; s < tr.NumSteps(); s++ {
		cs := &classes[tr.StepClass(s)]
		if !cs.done {
			cs.done = true
			for i, hi := tr.StepBounds(s); i < hi; i++ {
				elems := int64(tr.Elems(i))
				cs.total += elems
				if groupOf[tr.From(i)] != groupOf[tr.To(i)] {
					cs.global += elems
				}
			}
		}
		global += cs.global
		total += cs.total
	}
	return global, total
}
