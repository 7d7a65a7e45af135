package netsim

import (
	"math"
	"testing"

	"binetrees/internal/coll"
	"binetrees/internal/fabric"
	"binetrees/internal/topology"
)

// referenceEvaluate is the seed repository's Evaluate, verbatim: per-message
// floating-point accumulation of link loads, received volumes and byte
// totals. It anchors the profile/derive refactor against the original
// semantics non-circularly — Evaluate and EvaluateSizes share their
// arithmetic, so testing them against each other alone could not detect the
// pair drifting together.
func referenceEvaluate(tr *fabric.Trace, topo topology.Topology, p Params, ev Eval) Result {
	links := topo.Links()
	loads := make([]float64, len(links))
	var res Result
	for _, step := range tr.Steps() {
		if len(step) == 0 {
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
		for _, m := range step {
			src, dst := ev.Placement[m.From], ev.Placement[m.To]
			bytes := float64(m.Elems) * ev.ElemBytes
			res.TotalBytes += bytes
			res.Messages++
			route := topo.AppendRoute(nil, src, dst)
			a := p.AlphaLocal
			hops := 0
			for _, id := range route {
				loads[id] += bytes
				if links[id].Kind == topology.Global {
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
			if t := load / links[i].BW; t > worst {
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

// TestEvaluateMatchesSeedReference pins the refactored evaluator to the
// seed's per-message replay. At dyadic element scales — every scale the flat
// sweeps use: power-of-two sizes over power-of-two rank counts — each
// per-message product is exact, so the integer-accumulating profile must
// reproduce the reference bit for bit. At non-dyadic scales (torus
// recordings) the two accumulation orders legitimately differ: the reference
// accumulates one rounding per message (error up to ~messages·ε relative),
// the profile rounds once per quantity — the gap must stay within that
// accumulation bound, orders of magnitude below anything a rendered
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
	for _, algo := range coll.Registry() {
		tr := algoTrace(t, algo, p)
		for name, topo := range topos {
			for _, tc := range []struct {
				elemBytes float64
				dyadic    bool
			}{
				{0.25, true}, {4, true}, {1 << 16, true},
				{1024.0 / 48.0, false}, {1e6 / 384.0, false}, {7.3, false},
			} {
				ev := Eval{
					Placement: identity(p),
					ElemBytes: tc.elemBytes,
					Reduces:   algo.Coll.Reduces(),
					Overlap:   algo.Overlap,
					CopyBytes: algo.CopyFactor * tc.elemBytes * p,
				}
				want := referenceEvaluate(tr, topo, params, ev)
				got, err := Evaluate(tr, topo, params, ev)
				if err != nil {
					t.Fatalf("%v/%s on %s: %v", algo.Coll, algo.Name, name, err)
				}
				if got.Steps != want.Steps || got.Messages != want.Messages {
					t.Fatalf("%v/%s on %s: counts %+v, reference %+v", algo.Coll, algo.Name, name, got, want)
				}
				if tc.dyadic {
					if got != want {
						t.Fatalf("%v/%s on %s, dyadic elemBytes=%v:\n     got %+v\nseed ref %+v",
							algo.Coll, algo.Name, name, tc.elemBytes, got, want)
					}
				} else if !closeTo(got.Time, want.Time, want.Messages) || !closeTo(got.GlobalBytes, want.GlobalBytes, want.Messages) || !closeTo(got.TotalBytes, want.TotalBytes, want.Messages) {
					t.Fatalf("%v/%s on %s, elemBytes=%v: drift beyond ulps:\n     got %+v\nseed ref %+v",
						algo.Coll, algo.Name, name, tc.elemBytes, got, want)
				}
			}
		}
	}
}
