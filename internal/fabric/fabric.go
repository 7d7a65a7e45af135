// Package fabric is the hand-rolled message-passing runtime the collectives
// run on — the substitute for the MPI point-to-point layer used by the paper
// (no MPI ecosystem exists for Go; see DESIGN.md).
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
package fabric

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultTimeout is the base bound on how long a Recv waits for a matching
// message before failing. Collectives are deadlock-free by construction; the
// timeout turns a bug into a test failure instead of a hang. Long schedules
// (thousands of steps over thousands of ranks) legitimately keep individual
// receives waiting far beyond any flat constant, so the effective deadline
// is this base plus a budget that scales with the schedule size — see
// SetBudget on the transports and the Recorder's auto-scaling.
const DefaultTimeout = 30 * time.Second

// PerMessageBudget is the extra receive allowance granted per message of a
// schedule's budget: a schedule known (or observed) to move m messages may
// keep any single receive waiting DefaultTimeout + m×PerMessageBudget. The
// value is far above the per-message cost of the in-process transport, so a
// healthy schedule never exhausts it, while a genuinely deadlocked small
// schedule still fails near the base timeout.
const PerMessageBudget = 20 * time.Microsecond

// MaxBudget caps the scaled allowance so a deadlocked full-scale run fails
// within minutes instead of hanging for hours.
const MaxBudget = 15 * time.Minute

// ScaledTimeout returns the effective receive deadline for a schedule of
// the given total message count: the DefaultTimeout base plus the capped
// per-message budget.
func ScaledTimeout(messages int) time.Duration {
	return DefaultTimeout + budgetFor(messages)
}

// budgetFor converts a message count into the capped extra allowance.
func budgetFor(messages int) time.Duration {
	b := time.Duration(messages) * PerMessageBudget
	if b > MaxBudget {
		b = MaxBudget
	}
	return b
}

// raiseBudget CAS-maxes the allowance into the transport's budget cell:
// stale raises (smaller counts landing after larger ones) are no-ops.
func raiseBudget(budget *atomic.Int64, b time.Duration) {
	for {
		cur := budget.Load()
		if int64(b) <= cur {
			return
		}
		if budget.CompareAndSwap(cur, int64(b)) {
			return
		}
	}
}

// BudgetSetter is implemented by transports whose receive deadline scales
// with the schedule size. SetBudget grants every receive an allowance of
// DefaultTimeout (or the SetTimeout override) plus the capped per-message
// budget for the given count. Budgets only grow: a call below the current
// allowance is a no-op, so concurrent granters — many ranks observing
// different cumulative counts — can never regress the deadline, whatever
// order their raises land in. The Recorder calls it automatically as the
// recorded schedule grows, so callers rarely need to.
type BudgetSetter interface {
	SetBudget(messages int)
}

// ErrTimeout is returned when a receive waits longer than the fabric's
// timeout for a matching message.
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
