// TCP cluster: the same collectives running over real loopback sockets —
// the hand-rolled messaging substrate standing in for MPI. Eight ranks
// exchange length-prefixed frames; the example runs a Bine allreduce, a
// gather, and an alltoall and verifies all of them.
//
// A receive gives up only once the whole fabric has delivered nothing for
// fabric.DefaultTimeout, so a schedule of any length runs over TCP without
// being told how long it is.
package main

import (
	"fmt"
	"log"

	"binetrees"
)

func main() {
	const (
		p  = 8
		bs = 512
		n  = p * bs
	)
	cl, err := binetrees.NewTCPCluster(p)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	err = cl.Run(func(r *binetrees.Rank) error {
		me := int32(r.ID())
		// Allreduce (max): the result is the largest rank everywhere.
		buf := make([]int32, n)
		for i := range buf {
			buf[i] = me
		}
		if err := r.Allreduce(buf, binetrees.WithOp(binetrees.OpMax)); err != nil {
			return err
		}
		if buf[0] != p-1 {
			return fmt.Errorf("allreduce max: got %d", buf[0])
		}
		// Gather to rank 2.
		block := make([]int32, bs)
		for i := range block {
			block[i] = me
		}
		full := make([]int32, n)
		if err := r.Gather(block, full, binetrees.WithRoot(2)); err != nil {
			return err
		}
		if r.ID() == 2 {
			for o := 0; o < p; o++ {
				if full[o*bs] != int32(o) {
					return fmt.Errorf("gather block %d: got %d", o, full[o*bs])
				}
			}
			fmt.Printf("rank 2 gathered %d blocks over TCP\n", p)
		}
		// Alltoall.
		in := make([]int32, n)
		for d := 0; d < p; d++ {
			for i := 0; i < bs; i++ {
				in[d*bs+i] = me*100 + int32(d)
			}
		}
		out := make([]int32, n)
		if err := r.Alltoall(in, out); err != nil {
			return err
		}
		for o := 0; o < p; o++ {
			if out[o*bs] != int32(o)*100+me {
				return fmt.Errorf("alltoall from %d: got %d", o, out[o*bs])
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("allreduce, gather and alltoall verified over loopback TCP on", p, "ranks")
}
