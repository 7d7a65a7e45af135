package netsim

import (
	"math"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// referenceEvaluate is the seed repository's Evaluate at one element scale,
// verbatim but for reading the trace through StepBounds/At and the links
// through NumLinks/LinkBW: per-message floating-point accumulation of link
// loads, received volumes and byte totals. A link is global when its ID is
// past the injection block, whatever its place in the route. It anchors the
// profile/derive evaluator against the original semantics non-circularly —
// it shares no arithmetic with EvaluateSizes, which counts a route's global
// hops by its length.
func referenceEvaluate(tr *fabric.Trace, topo topology.Topology, p Params, ev Eval, elemBytes float64) Result {
	firstGlobal := int32(2 * topo.Nodes())
	loads := make([]float64, topo.NumLinks())
	var res Result
	for s := 0; s < tr.NumSteps(); s++ {
		lo, hi := tr.StepBounds(s)
		if lo == hi {
			continue
		}
		res.Steps++
		for i := range loads {
			loads[i] = 0
		}
		alpha := 0.0
		var maxRecv float64
		recvPer := map[int]float64{}
		sendCnt := map[int]int{}
		maxMsgs := 0
		for i := lo; i < hi; i++ {
			m := fabric.Record{From: tr.From(i), To: tr.To(i), Step: s, Elems: tr.Elems(i)}
			src, dst := ev.Placement[m.From], ev.Placement[m.To]
			bytes := float64(m.Elems) * elemBytes
			res.TotalBytes += bytes
			res.Messages++
			route := topo.AppendRoute(nil, src, dst)
			a := p.AlphaLocal
			hops := 0
			for _, id := range route {
				loads[id] += bytes
				if id >= firstGlobal {
					a = p.AlphaGlobal
					res.GlobalBytes += bytes
					hops++
				}
			}
			if hops > 1 {
				a += float64(hops-1) * p.PerHopLatency
			}
			if a > alpha {
				alpha = a
			}
			if ev.Reduces {
				recvPer[m.To] += bytes
				if recvPer[m.To] > maxRecv {
					maxRecv = recvPer[m.To]
				}
			}
			sendCnt[m.From]++
			if sendCnt[m.From] > maxMsgs {
				maxMsgs = sendCnt[m.From]
			}
		}
		worst := 0.0
		for i, load := range loads {
			if load == 0 {
				continue
			}
			if t := load / topo.LinkBW(int32(i)); t > worst {
				worst = t
			}
		}
		stepTime := alpha + worst
		if maxMsgs > 1 {
			stepTime += float64(maxMsgs-1) * p.MsgOverhead
		}
		if ev.Reduces && maxRecv > 0 {
			stepTime += maxRecv * p.Gamma * (1 - ev.Overlap)
		}
		res.Time += stepTime
	}
	if ev.CopyBytes > 0 && p.MemBW > 0 {
		res.Time += ev.CopyBytes / p.MemBW
	}
	return res
}

// TestEvaluateMatchesSeedReference pins the batched evaluator to the seed's
// per-message replay: every registry algorithm (all collectives) and a trace
// of non-adjacent repeated steps on every topology family, all scales scored by ONE EvaluateSizes call with per-size
// copy costs (CopyBytesAt), each size compared with a reference replay at
// that scale. At dyadic element scales — every scale the flat sweeps use:
// power-of-two sizes over power-of-two rank counts — each per-message product
// is exact, so the integer-accumulating profile must reproduce the reference
// bit for bit. At non-dyadic scales (torus recordings divide by p·2·ndims;
// arbitrary decimals) the two accumulation orders legitimately differ: the
// reference accumulates one rounding per message (error up to ~messages·ε
// relative), the profile rounds once per quantity — the gap must stay within
// that accumulation bound, orders of magnitude below anything a rendered
// artifact can observe.
func TestEvaluateMatchesSeedReference(t *testing.T) {
	const p = 16
	topos := testTopologies(t, p)
	params := testParams()
	params.PerHopLatency = 3e-7
	closeTo := func(a, b float64, msgs int) bool {
		if a == b {
			return true
		}
		tol := float64(msgs) * 4 * 2.22e-16 * math.Max(math.Abs(a), math.Abs(b))
		return math.Abs(a-b) <= tol
	}
	elemBytes := []float64{0.25, 4, 4096, 1 << 16, 1024.0 / 48.0, 1e6 / 384.0, 7.3, 123456.789}
	const dyadic = 4 // elemBytes[:dyadic] are exact per message
	type input struct {
		name            string
		tr              *fabric.Trace
		reduces         bool
		overlap, factor float64
	}
	var inputs []input
	for _, algo := range coll.Registry() {
		// The permute strategies' own copy factor, and a flat half vector for
		// everything else so every algorithm exercises the per-size pairing.
		factor := algo.CopyFactor
		if factor == 0 {
			factor = 0.5
		}
		inputs = append(inputs, input{algo.Coll.String() + "/" + algo.Name, algoTrace(t, algo, p),
			algo.Coll.Reduces(), algo.Overlap, factor})
	}
	// Steps A B A _ C A: the profile replays each class once and charges it
	// per step, the reference replays every step.
	repeated := repeatedStepsTrace(p)
	if repeated.NumClasses() != 4 || repeated.NumSteps() != 6 {
		t.Fatalf("repeated-steps trace has %d classes over %d steps, want 4 over 6", repeated.NumClasses(), repeated.NumSteps())
	}
	inputs = append(inputs, input{"repeated steps", repeated, true, 0.3, 0.5})
	for _, in := range inputs {
		tr := in.tr
		copyBytes := make([]float64, len(elemBytes))
		for i, eb := range elemBytes {
			copyBytes[i] = in.factor * eb * p
		}
		for name, topo := range topos {
			ev := Eval{
				Placement:   identity(p),
				Reduces:     in.reduces,
				Overlap:     in.overlap,
				CopyBytesAt: copyBytes,
			}
			batched, err := EvaluateSizes(tr, topo, params, ev, elemBytes)
			if err != nil {
				t.Fatalf("%s on %s: %v", in.name, name, err)
			}
			if len(batched) != len(elemBytes) {
				t.Fatalf("%s on %s: %d results for %d sizes", in.name, name, len(batched), len(elemBytes))
			}
			for i, eb := range elemBytes {
				got := batched[i]
				ref := ev
				ref.CopyBytesAt, ref.CopyBytes = nil, copyBytes[i]
				want := referenceEvaluate(tr, topo, params, ref, eb)
				if got.Steps != want.Steps || got.Messages != want.Messages {
					t.Fatalf("%s on %s: counts %+v, reference %+v", in.name, name, got, want)
				}
				if i < dyadic {
					if got != want {
						t.Fatalf("%s on %s, dyadic elemBytes=%v:\n     got %+v\nseed ref %+v",
							in.name, name, eb, got, want)
					}
				} else if !closeTo(got.Time, want.Time, want.Messages) || !closeTo(got.GlobalBytes, want.GlobalBytes, want.Messages) || !closeTo(got.TotalBytes, want.TotalBytes, want.Messages) {
					t.Fatalf("%s on %s, elemBytes=%v: drift beyond ulps:\n     got %+v\nseed ref %+v",
						in.name, name, eb, got, want)
				}
			}
		}
	}
}

// TestGlobalTrafficMatchesPerRecordSum holds GlobalTraffic, which sums each
// step class once, to the sum over every step's records expanded through
// StepBounds, on traces whose steps repeat: the hand-built A B A _ C A and a
// recorded ring allreduce (two classes over 2(p−1) steps).
func TestGlobalTrafficMatchesPerRecordSum(t *testing.T) {
	const p = 16
	ring, ok := coll.Find(coll.Registry(), coll.CAllreduce, "ring")
	if !ok {
		t.Fatal("allreduce/ring not registered")
	}
	groupings := map[string]func(r int) int{
		"pairs":   func(r int) int { return r / 2 },
		"strided": func(r int) int { return r % 3 },
	}
	for name, tr := range map[string]*fabric.Trace{
		"repeated steps": repeatedStepsTrace(p),
		"ring allreduce": algoTrace(t, ring, p),
	} {
		if tr.NumClasses()-1 >= tr.NumSteps() {
			t.Fatalf("%s: %d classes over %d steps, want repeated steps", name, tr.NumClasses(), tr.NumSteps())
		}
		for gname, group := range groupings {
			groupOf := make([]int, p)
			for r := range groupOf {
				groupOf[r] = group(r)
			}
			var wantGlobal, wantTotal int64
			for s := 0; s < tr.NumSteps(); s++ {
				for i, hi := tr.StepBounds(s); i < hi; i++ {
					wantTotal += int64(tr.Elems(i))
					if groupOf[tr.From(i)] != groupOf[tr.To(i)] {
						wantGlobal += int64(tr.Elems(i))
					}
				}
			}
			global, total := GlobalTraffic(tr, groupOf)
			if global != wantGlobal || total != wantTotal || wantGlobal == 0 {
				t.Errorf("%s, %s groups: GlobalTraffic = (%d, %d), per-record sum (%d, %d)",
					name, gname, global, total, wantGlobal, wantTotal)
			}
		}
	}
}

// repeatedStepsTrace is a p-rank trace of steps A B A _ C A whose bodies
// load shared links, send several messages per sender and fold several into
// one receiver.
func repeatedStepsTrace(p int) *fabric.Trace {
	a := []fabric.Record{{From: 0, To: p - 1, Elems: 3}, {From: 0, To: p / 2, Elems: 1}, {From: 1, To: p - 1, Elems: 2}}
	b := []fabric.Record{{From: p - 1, To: 0, Elems: 4}, {From: p / 2, To: 1, Elems: 4}}
	c := []fabric.Record{{From: 2, To: 3, Elems: 5}}
	var recs []fabric.Record
	for step, body := range [][]fabric.Record{a, b, a, nil, c, a} {
		for _, r := range body {
			r.Step = step
			recs = append(recs, r)
		}
	}
	return fabric.NewTrace(p, recs)
}
