// Package fabric is the hand-rolled message-passing runtime the collectives
// run on — the substitute for the MPI point-to-point layer used by the paper.
// Go has no MPI binding in its standard library, and the repository takes no
// dependencies, so the point-to-point layer is written here.
//
// A Fabric hosts p ranks. Each rank obtains a Comm handle and exchanges
// typed vectors ([]int32, matching the paper's 32-bit-integer benchmark
// vectors) with its peers. Messages are matched by (peer, step, sub): step
// is the collective's logical step number and sub distinguishes multiple
// messages between the same pair within one step (e.g. block-by-block
// transmissions, Sec. 4.3.1 of the paper).
//
// Two transports are provided: Mem (in-process mailboxes, used for large
// rank counts) and TCP (length-prefixed frames over loopback sockets, used
// to demonstrate the collectives over a real network stack). A Recorder can
// wrap any fabric to capture the full communication trace for the traffic
// and cost analyses in internal/netsim.
//
// Nothing here needs to know how long a schedule is: a blocked Recv fails
// only once the whole fabric has stopped delivering (see DefaultTimeout).
package fabric

import (
	"errors"
	"fmt"
	"time"
)

// DefaultTimeout is how long a fabric may deliver nothing before a blocked
// Recv gives up. Collectives are deadlock-free by construction; the watchdog
// turns a bug into a test failure instead of a hang. It watches the fabric,
// not the receive: a delivery to any rank re-arms every blocked receiver, so
// a healthy schedule of any length never trips it, and a deadlocked one fails
// between one and two timeouts after its last delivery (or after the receive
// began, if that is later) — see ranks.lastMoved. SetTimeout on the
// transports overrides it; only tests do.
//
// The hot path pays nothing shared: put counts a delivery in its own mailbox
// under the lock it already holds, and take reads no other rank's state until
// a whole timeout has passed. Receivers expiring together share one O(p) pass
// per timeout (a 1024-rank ring at 50 ms passes under -race,
// coll.TestRingAllreduceUnderShortWatchdog).
const DefaultTimeout = 30 * time.Second

// ErrTimeout is returned by a receive still unmatched after the whole fabric
// has delivered nothing for its timeout.
var ErrTimeout = errors.New("fabric: receive timed out")

// ErrClosed is returned when operating on a closed fabric.
var ErrClosed = errors.New("fabric: closed")

// Comm is one rank's endpoint into a fabric. A Comm must only be used from
// the goroutine driving that rank, but different ranks' Comms may be used
// concurrently.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers a copy of data to rank `to`, tagged (step, sub).
	// It does not block on the receiver.
	Send(to, step, sub int, data []int32) error
	// Recv waits for the message from rank `from` tagged (step, sub) and
	// copies it into buf, which must have exactly the message's length.
	Recv(from, step, sub int, buf []int32) error
}

// Fabric is a set of ranks wired together by some transport.
type Fabric interface {
	Size() int
	// Comm returns the endpoint for the given rank.
	Comm(rank int) Comm
	// Close releases transport resources; pending receives fail.
	Close() error
}

// Run drives fn concurrently for every rank of the fabric and returns the
// first error any rank produced (all ranks are always joined first). It is
// the moral equivalent of mpirun for this runtime.
func Run(f Fabric, fn func(c Comm) error) error {
	p := f.Size()
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(rank int) {
			defer func() {
				if rec := recover(); rec != nil {
					errs <- fmt.Errorf("fabric: rank %d panicked: %v", rank, rec)
				}
			}()
			errs <- fn(f.Comm(rank))
		}(r)
	}
	var first error
	for r := 0; r < p; r++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
