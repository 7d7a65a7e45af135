// Package coll implements the eight collective operations of the paper —
// broadcast, reduce, gather, scatter, reduce-scatter, allgather, allreduce,
// alltoall — in their Bine variants (Sec. 4) and in every baseline variant
// the paper compares against (binomial trees and butterflies, ring, Bruck,
// Swing, bucket, linear).
//
// All collectives operate on []int32 vectors, matching the paper's
// evaluation ("all collectives operate on vectors of 32-bit integers"), and
// run per-rank against a fabric.Comm. Executions are verified against
// locally computed expected results in the tests; communication traces
// recorded through fabric.Recorder feed the traffic/cost analyses.
package coll

import "fmt"

// Op is an associative, commutative reduction operator applied elementwise.
type Op struct {
	Name  string
	apply func(dst, src []int32)
}

// Apply folds src into dst elementwise: dst[i] = dst[i] op src[i]. The two
// slices must have equal length. An Op without a fold function, such as the
// walks' opNone, folds nothing.
func (o Op) Apply(dst, src []int32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("coll: %s over mismatched lengths %d and %d", o.Name, len(dst), len(src)))
	}
	if o.apply != nil {
		o.apply(dst, src)
	}
}

// Reduction operators mirroring the MPI built-ins used by the paper's
// benchmarks.
var (
	OpSum = Op{Name: "sum", apply: func(dst, src []int32) {
		for i, v := range src {
			dst[i] += v
		}
	}}
	OpMax = Op{Name: "max", apply: func(dst, src []int32) {
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}}
	OpMin = Op{Name: "min", apply: func(dst, src []int32) {
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	}}
	OpProd = Op{Name: "prod", apply: func(dst, src []int32) {
		for i, v := range src {
			dst[i] *= v
		}
	}}
	OpBXor = Op{Name: "bxor", apply: func(dst, src []int32) {
		for i, v := range src {
			dst[i] ^= v
		}
	}}
)
