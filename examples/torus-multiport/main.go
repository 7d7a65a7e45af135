// Torus multiport: the Fugaku-style collectives of Appendix D on the public
// API. A 4×4 torus runs the torus-optimized Bine allreduce, its multi-ported
// variant (one concurrent sub-collective per torus direction) and the Bucket
// baseline, verifying results and comparing step counts and per-direction
// concurrency from the recorded traces.
package main

import (
	"fmt"
	"log"

	"binetrees"
)

func main() {
	dims := []int{4, 4}
	const p = 16
	planes := 2 * len(dims)
	n := p * planes // divisible for the multiport slicing
	want := int32(p * (p - 1) / 2)

	type variant struct {
		name string
		run  func(r *binetrees.Rank, buf []int32) error
	}
	variants := []variant{
		{"bine-torus", func(r *binetrees.Rank, buf []int32) error { return r.TorusAllreduce(dims, buf) }},
		{"bine-multiport", func(r *binetrees.Rank, buf []int32) error { return r.TorusMultiportAllreduce(dims, buf) }},
		{"bucket", func(r *binetrees.Rank, buf []int32) error { return r.BucketAllreduce(dims, buf) }},
	}
	fmt.Printf("allreduce of %d elements on a %v torus (%d ranks)\n\n", n, dims, p)
	for _, v := range variants {
		cl := binetrees.NewCluster(p)
		cl.EnableRecording()
		err := cl.Run(func(r *binetrees.Rank) error {
			buf := make([]int32, n)
			for i := range buf {
				buf[i] = int32(r.ID())
			}
			if err := v.run(r, buf); err != nil {
				return err
			}
			for i, got := range buf {
				if got != want {
					return fmt.Errorf("rank %d element %d: %d != %d", r.ID(), i, got, want)
				}
			}
			return nil
		})
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		tr := cl.Trace()
		cl.Close()
		active := 0
		for s := 0; s < tr.NumSteps(); s++ {
			if lo, hi := tr.StepBounds(s); hi > lo {
				active++
			}
		}
		fmt.Printf("  %-15s %3d synchronous steps, %5d messages, %6d elements moved\n",
			v.name, active, tr.Messages(), tr.TotalElems())
	}
	fmt.Println("\nmultiport shares step numbers across its 2·D planes — they run concurrently")
	fmt.Println("on disjoint torus directions, which is how Fugaku's six TNIs are saturated (App. D.4)")
}
