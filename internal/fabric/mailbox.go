package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// message is one in-flight point-to-point transfer. Payloads of up to
// inlineElems elements are stored inline in the struct — unit-granularity
// trace recordings move hundreds of millions of 1-element blocks, and
// keeping those off the heap removes an allocation per message — while
// larger payloads ride an owned slice.
type message struct {
	from, step, sub int
	n               int32 // payload length in elements
	inline          [inlineElems]int32
	data            []int32 // nil when the payload is inline
}

// inlineElems is the largest payload stored inside the message struct.
const inlineElems = 2

// newMessage builds a message owning a copy of data.
func newMessage(from, step, sub int, data []int32) message {
	msg := message{from: from, step: step, sub: sub, n: int32(len(data))}
	if len(data) <= inlineElems {
		copy(msg.inline[:], data)
	} else {
		msg.data = make([]int32, len(data))
		copy(msg.data, data)
	}
	return msg
}

// payload returns the message's element slice regardless of storage.
func (m *message) payload() []int32 {
	if m.data != nil {
		return m.data
	}
	return m.inline[:m.n]
}

// copyInto checks the length contract and copies the payload into buf.
func (m *message) copyInto(rank, from, step, sub int, buf []int32) error {
	if int(m.n) != len(buf) {
		return fmt.Errorf("fabric: rank %d recv from %d (step=%d sub=%d): got %d elems, want %d",
			rank, from, step, sub, m.n, len(buf))
	}
	copy(buf, m.payload())
	return nil
}

// mailbox is a rank's incoming message queue with out-of-order matching:
// receives specify (from, step, sub) and messages may arrive in any order.
type mailbox struct {
	mu        sync.Mutex
	cond      *sync.Cond
	pending   []message
	closed    bool
	delivered atomic.Int64 // messages ever put; written under mu, read by the watchdog
}

// put enqueues a message; the payload must already be owned by the mailbox
// (callers construct via newMessage, which copies).
func (m *mailbox) put(msg message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.pending = append(m.pending, msg)
	m.delivered.Add(1)
	m.cond.Broadcast()
	return nil
}

// take waits until a message matching (from, step, sub) is available and
// removes it from the queue. It gives up only when the fabric's watchdog
// says nothing was delivered anywhere for a whole timeout.
func (m *mailbox) take(from, step, sub int, f *ranks) (message, error) {
	armed := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return message{}, ErrClosed
		}
		for i := range m.pending {
			msg := &m.pending[i]
			if msg.from == from && msg.step == step && msg.sub == sub {
				out := *msg
				last := len(m.pending) - 1
				m.pending[i] = m.pending[last]
				m.pending[last] = message{} // release the payload reference
				m.pending = m.pending[:last]
				return out, nil
			}
		}
		timeout := time.Duration(f.timeout.Load())
		remaining := time.Until(armed.Add(timeout))
		if remaining <= 0 {
			moved := f.lastMoved(timeout)
			if !moved.After(armed) {
				return message{}, fmt.Errorf("%w: waiting for (from=%d step=%d sub=%d)", ErrTimeout, from, step, sub)
			}
			armed = moved
			continue
		}
		// sync.Cond has no timed wait; a one-shot timer broadcasting the
		// condition bounds the sleep. It broadcasts under the lock, so it
		// cannot fire between here and Wait's registration and be lost.
		timer := time.AfterFunc(remaining, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		m.cond.Wait()
		timer.Stop()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// ranks is what every transport is underneath: one mailbox per rank and the
// receive watchdog over all of them. Mem and TCP embed it and differ only in
// how a Send reaches the destination's mailbox.
type ranks struct {
	boxes   []*mailbox
	timeout atomic.Int64 // nanoseconds; DefaultTimeout unless SetTimeout

	// Touched only by receivers that have waited a whole timeout: the
	// delivery count summed over every mailbox at the last pass, and when a
	// pass last found that it had grown.
	watch struct {
		sync.Mutex
		seen    int64
		movedAt time.Time
	}
}

func (f *ranks) init(p int) {
	f.timeout.Store(int64(DefaultTimeout))
	f.boxes = make([]*mailbox, p)
	for i := range f.boxes {
		m := &mailbox{}
		m.cond = sync.NewCond(&m.mu)
		f.boxes[i] = m
	}
}

// SetTimeout replaces DefaultTimeout (tests exercising failure paths use
// short timeouts).
func (f *ranks) SetTimeout(d time.Duration) { f.timeout.Store(int64(d)) }

// Size returns the number of ranks.
func (f *ranks) Size() int { return len(f.boxes) }

// lastMoved returns the latest time the fabric is known to have delivered a
// message. It looks (one O(p) pass) only when nobody has seen the fabric move
// for a whole timeout, so a moving fabric is summed at most once per timeout
// however many receivers expire together; a caller that gets nothing newer
// than the time it armed at has watched a whole quiet timeout and fails. The
// first pass after the last delivery comes within one timeout of it and the
// next finds the sum unchanged — hence DefaultTimeout's one-to-two bound.
func (f *ranks) lastMoved(timeout time.Duration) time.Time {
	w := &f.watch
	w.Lock()
	defer w.Unlock()
	if time.Since(w.movedAt) >= timeout {
		var sum int64
		for _, m := range f.boxes {
			sum += m.delivered.Load()
		}
		if sum != w.seen {
			// Stamped after the pass: whatever it counted came earlier.
			w.seen, w.movedAt = sum, time.Now()
		}
	}
	return w.movedAt
}

// endpoint returns the receiving half of rank's Comm, shared by transports.
func (f *ranks) endpoint(rank int) endpoint {
	if rank < 0 || rank >= len(f.boxes) {
		panic(fmt.Sprintf("fabric: rank %d out of range [0,%d)", rank, len(f.boxes)))
	}
	return endpoint{f, rank}
}

// close shuts every mailbox down; pending receives fail with ErrClosed.
func (f *ranks) close() {
	for _, m := range f.boxes {
		m.close()
	}
}

type endpoint struct {
	*ranks
	rank int
}

func (e endpoint) Rank() int { return e.rank }

// checkPeer rejects the destinations no transport can deliver to.
func (e endpoint) checkPeer(to int) error {
	if to < 0 || to >= len(e.boxes) {
		return fmt.Errorf("fabric: send to rank %d of %d", to, len(e.boxes))
	}
	if to == e.rank {
		return fmt.Errorf("fabric: rank %d sending to itself", to)
	}
	return nil
}

func (e endpoint) Recv(from, step, sub int, buf []int32) error {
	msg, err := e.boxes[e.rank].take(from, step, sub, e.ranks)
	if err != nil {
		return fmt.Errorf("fabric: rank %d recv: %w", e.rank, err)
	}
	return msg.copyInto(e.rank, from, step, sub, buf)
}
