package coll

import (
	"fmt"

	"binetrees/internal/fabric"
)

// ctx wraps a rank's Comm with sticky-error semantics so collective code
// reads as straight-line communication schedules; the first failure
// suppresses all subsequent operations and is reported once.
type ctx struct {
	c   fabric.Comm
	err error
}

func (x *ctx) send(to, step, sub int, data []int32) {
	if x.err != nil {
		return
	}
	x.err = x.c.Send(to, step, sub, data)
}

func (x *ctx) recv(from, step, sub int, buf []int32) {
	if x.err != nil {
		return
	}
	x.err = x.c.Recv(from, step, sub, buf)
}

// exchange sends sdata to peer and receives len(rbuf) elements from the same
// peer under the same (step, sub) tag.
func (x *ctx) exchange(peer, step, sub int, sdata, rbuf []int32) {
	x.send(peer, step, sub, sdata)
	x.recv(peer, step, sub, rbuf)
}

// Group restricts a communicator to the given global ranks, renumbering them
// 0..len(ranks)−1 in slice order. The caller's own rank must be present.
// Collectives run on the returned Comm exactly as on a full communicator;
// sub-communicators are how the hierarchical (Sec. 6.2) and torus
// (Appendix D) algorithms compose 1-D collectives.
func Group(c fabric.Comm, ranks []int) (fabric.Comm, error) {
	me := -1
	for i, r := range ranks {
		if r == c.Rank() {
			me = i
			break
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("coll: rank %d not in group %v", c.Rank(), ranks)
	}
	return &groupComm{inner: c, ranks: append([]int(nil), ranks...), me: me}, nil
}

type groupComm struct {
	inner fabric.Comm
	ranks []int
	me    int
}

func (g *groupComm) Rank() int { return g.me }
func (g *groupComm) Size() int { return len(g.ranks) }

func (g *groupComm) Send(to, step, sub int, data []int32) error {
	return g.inner.Send(g.ranks[to], step, sub, data)
}

func (g *groupComm) Recv(from, step, sub int, buf []int32) error {
	return g.inner.Recv(g.ranks[from], step, sub, buf)
}

// Offset shifts the step tags of a communicator by base. A composite runs
// its phases back to back: phase k+1 starts at the step count of the phases
// before it, taken from structures every rank shares (a tree's Steps, a
// butterfly's S, p − 1 for a ring), never from a rank's own count.
func Offset(c fabric.Comm, base int) fabric.Comm {
	return &offsetComm{inner: c, base: base}
}

type offsetComm struct {
	inner fabric.Comm
	base  int
}

func (o *offsetComm) Rank() int { return o.inner.Rank() }
func (o *offsetComm) Size() int { return o.inner.Size() }

func (o *offsetComm) Send(to, step, sub int, data []int32) error {
	return o.inner.Send(to, o.base+step, sub, data)
}

func (o *offsetComm) Recv(from, step, sub int, buf []int32) error {
	return o.inner.Recv(from, o.base+step, sub, buf)
}

// SubShift relabels only the sub tags of a communicator. Parallel
// multi-ported sub-collectives (Appendix D.4) share step numbers — they are
// genuinely concurrent on the wire — and use disjoint sub windows to keep
// their frames apart.
func SubShift(c fabric.Comm, base int) fabric.Comm {
	return &subShiftComm{inner: c, base: base}
}

type subShiftComm struct {
	inner fabric.Comm
	base  int
}

func (s *subShiftComm) Rank() int { return s.inner.Rank() }
func (s *subShiftComm) Size() int { return s.inner.Size() }

func (s *subShiftComm) Send(to, step, sub int, data []int32) error {
	return s.inner.Send(to, step, s.base+sub, data)
}

func (s *subShiftComm) Recv(from, step, sub int, buf []int32) error {
	return s.inner.Recv(from, step, s.base+sub, buf)
}
