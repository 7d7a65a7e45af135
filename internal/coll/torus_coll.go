package coll

import (
	"cmp"
	"fmt"
	"slices"

	"binetrees/internal/core"
	"binetrees/internal/fabric"
)

// Torus-optimized collectives (Appendix D): ranks are coordinates of a
// multidimensional torus and every communication moves along a single
// dimension, keeping hop counts minimal. Each dimension runs a 1-D
// collective over the Line sub-communicator of that dimension.

// TorusRegistry returns the torus collectives over tor in the registry's
// Algorithm shape: the Bine allreduce, its multi-ported variant and the
// Bucket baseline, and the per-dimension Bine-tree broadcast and reduce.
// Each Make rejects a rank count other than tor.P() and builds the
// schedule's structures once — a butterfly per distinct dimension size,
// shared by every multiport plane, or a tree per dimension rooted at the
// root's coordinates — so the RunFunc it returns builds none per rank.
func TorusRegistry(tor core.Torus) []Algorithm {
	entry := func(name string, coll Collective, bine bool, build func(*torusSched) error,
		run func(s *torusSched, c fabric.Comm, in, out []int32, op Op) error) Algorithm {
		return Algorithm{Name: name, Coll: coll, Bine: bine, Make: func(p, root int) (RunFunc, error) {
			if p != tor.P() {
				return nil, fmt.Errorf("coll: %d ranks for a torus of %d", p, tor.P())
			}
			s := &torusSched{tor: tor, root: root, rc: tor.Coord(root)}
			if err := build(s); err != nil {
				return nil, err
			}
			return func(c fabric.Comm, _ int, in, out []int32, op Op) error {
				if c.Size() != p {
					return fmt.Errorf("coll: torus of %d ranks on a %d-rank communicator", p, c.Size())
				}
				return run(s, c, in, out, op)
			}, nil
		}}
	}
	return []Algorithm{
		entry("bine-torus", CAllreduce, true, (*torusSched).buildButterflies, func(s *torusSched, c fabric.Comm, in, _ []int32, op Op) error {
			return s.allreduce(c, in, op, 0, false, 0)
		}),
		entry("bine-multiport", CAllreduce, true, (*torusSched).buildButterflies, func(s *torusSched, c fabric.Comm, in, _ []int32, op Op) error {
			return s.multiport(c, in, op)
		}),
		entry("bucket", CAllreduce, false, func(*torusSched) error { return nil }, func(s *torusSched, c fabric.Comm, in, _ []int32, op Op) error {
			return s.bucket(c, in, op)
		}),
		entry("bine-bcast", CBcast, true, (*torusSched).buildTrees, func(s *torusSched, c fabric.Comm, in, _ []int32, _ Op) error {
			return s.bcast(c, in)
		}),
		entry("bine-reduce", CReduce, true, (*torusSched).buildTrees, (*torusSched).reduce),
	}
}

// runTorus runs TorusRegistry(tor)'s named entry once, building its
// structures for this one call.
func runTorus(c fabric.Comm, tor core.Torus, coll Collective, name string, root int, in, out []int32, op Op) error {
	a, _ := Find(TorusRegistry(tor), coll, name)
	run, err := a.Make(tor.P(), root)
	if err != nil {
		return err
	}
	return run(c, root, in, out, op)
}

// TorusAllreduce performs the Appendix D Bine allreduce (TorusRegistry's
// bine-torus): a per-dimension reduce-scatter sweep (dimensions ascending)
// followed by the mirrored per-dimension allgather sweep. Every dimension
// size must be a power of two; the vector length must be a multiple of the
// total rank count.
func TorusAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	return runTorus(c, tor, CAllreduce, "bine-torus", 0, buf, nil, op)
}

// TorusMultiportAllreduce exploits one NIC per torus direction (Appendix
// D.4; TorusRegistry's bine-multiport): the vector is split into 2·D slices
// and 2·D allreduces run concurrently, each starting on a different
// dimension (rotated order) and direction (mirrored lines for the second
// half).
func TorusMultiportAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	return runTorus(c, tor, CAllreduce, "bine-multiport", 0, buf, nil, op)
}

// BucketAllreduce is the torus-optimized Bucket baseline (Jain & Sabharwal,
// cited in Sec. 5; TorusRegistry's bucket): a multi-dimensional ring —
// per-dimension ring reduce-scatter sweeps followed by reversed ring
// allgather sweeps. It handles arbitrary dimension sizes.
func BucketAllreduce(c fabric.Comm, tor core.Torus, buf []int32, op Op) error {
	return runTorus(c, tor, CAllreduce, "bucket", 0, buf, nil, op)
}

// TorusBcast broadcasts along one dimension at a time over per-dimension
// Bine trees (Appendix D; TorusRegistry's bine-bcast): after phase d, every
// rank whose trailing coordinates match the root's holds the vector; the
// final phase covers the whole torus.
func TorusBcast(c fabric.Comm, tor core.Torus, root int, buf []int32) error {
	return runTorus(c, tor, CBcast, "bine-bcast", root, buf, nil, Op{})
}

// torusSched is what a TorusRegistry Make builds once and every rank's call
// reads: the torus, the root and its coordinates rc, and the schedule's
// structures.
type torusSched struct {
	tor  core.Torus
	root int
	rc   []int
	// bflys holds each dimension's distance-doubling Bine butterfly (nil
	// for a size-1 dimension), one per distinct size.
	bflys []*core.Butterfly
	// trees holds each dimension's Bine tree, rooted at rc, and start the
	// step its phase starts at: the phases are numbered in ascending
	// dimension order, whichever order they run in.
	trees []*core.Tree
	start []int
}

func (s *torusSched) buildButterflies() error {
	s.bflys = make([]*core.Butterfly, s.tor.NDims())
	for d, qd := range s.tor.Dims {
		if same := slices.Index(s.tor.Dims[:d], qd); same >= 0 {
			s.bflys[d] = s.bflys[same]
		} else if qd > 1 {
			b, err := core.NewButterfly(core.BflyBineDD, qd)
			if err != nil {
				return fmt.Errorf("coll: torus dimension %d: %w", d, err)
			}
			s.bflys[d] = b
		}
	}
	return nil
}

func (s *torusSched) buildTrees() error {
	s.trees, s.start = make([]*core.Tree, s.tor.NDims()), make([]int, s.tor.NDims())
	next := 0
	for d, qd := range s.tor.Dims {
		var err error
		if s.trees[d], err = core.NewTree(core.BineDH, qd, s.rc[d]); err != nil {
			return err
		}
		s.start[d], next = next, next+s.trees[d].Steps
	}
	return nil
}

// allreduce is the Bine allreduce, parameterized for the multi-ported
// variant: the dimensions run in order from first, wrapping; mirror reverses
// every line, flipping the direction the Bine schedule walks around each
// ring (Appendix D.4's opposite-port planes). width is every dimension
// phase's step count, 0 for its own log2 steps. The allgathers follow the
// reduce-scatters, run in reverse order but numbered in order: each offsets
// its reduce-scatter's sub-communicator by rsLen.
func (s *torusSched) allreduce(c fabric.Comm, buf []int32, op Op, first int, mirror bool, width int) error {
	if err := checkBlocks(len(buf), s.tor.P()); err != nil {
		return err
	}
	type phase struct {
		b   *core.Butterfly
		sub fabric.Comm
		me  int
		seg []int32
	}
	phases := make([]phase, 0, s.tor.NDims())
	seg := buf
	rsLen := 0 // steps of the reduce-scatter phases so far
	for j := range s.tor.NDims() {
		d := (first + j) % s.tor.NDims()
		qd := s.tor.Dims[d]
		start := rsLen
		rsLen += cmp.Or(width, core.Log2Ceil(qd))
		if qd == 1 {
			continue
		}
		b := s.bflys[d]
		line := s.tor.Line(c.Rank(), d)
		if mirror {
			line = mirrorLine(line)
		}
		sub, err := Group(Offset(c, start), line)
		if err != nil {
			return err
		}
		if len(seg)%qd != 0 {
			return fmt.Errorf("coll: segment of %d elements not divisible by dimension %d (size %d)", len(seg), d, qd)
		}
		me := sub.Rank()
		if err := halving(b, Permute, len(seg)).run(&ctx{c: sub}, me, seg, 0, b.S, &op); err != nil {
			return err
		}
		bs := len(seg) / qd
		lo, hi := keepRange(b, me, b.S-1)
		phases = append(phases, phase{b: b, sub: sub, me: me, seg: seg})
		seg = seg[lo*bs : hi*bs]
	}
	for k := len(phases) - 1; k >= 0; k-- {
		ph := phases[k]
		ag := Offset(ph.sub, rsLen)
		if err := doubling(ph.b, Permute, len(ph.seg)).run(&ctx{c: ag}, ph.me, ph.seg, 0, ph.b.S, nil); err != nil {
			return err
		}
	}
	return nil
}

// mirrorLine reverses the orientation of a ring line while keeping the same
// member at index 0 (so coordinates stay aligned across ranks of the line).
func mirrorLine(line []int) []int {
	out := make([]int, len(line))
	out[0] = line[0]
	for i := 1; i < len(line); i++ {
		out[i] = line[len(line)-i]
	}
	return out
}

// multiport runs the 2·D planes of TorusMultiportAllreduce, plane k on the
// k-th slice of buf, starting on dimension k mod D. Message tags share step
// numbers across planes — the planes genuinely overlap on the wire — and
// use disjoint sub windows. Every plane gives each of its dimension phases
// the largest dimension's step count, so phase k starts at the same step in
// every plane.
func (s *torusSched) multiport(c fabric.Comm, buf []int32, op Op) error {
	d := s.tor.NDims()
	planes := 2 * d
	if len(buf)%(planes*s.tor.P()) != 0 || len(buf) == 0 {
		return fmt.Errorf("coll: vector of %d elements not divisible into %d plane blocks", len(buf), planes*s.tor.P())
	}
	sliceLen := len(buf) / planes
	width := core.Log2Ceil(slices.Max(s.tor.Dims))
	for k := range planes {
		slice := buf[k*sliceLen : (k+1)*sliceLen]
		if err := s.allreduce(SubShift(c, (k+1)*1024), slice, op, k%d, k >= d, width); err != nil {
			return fmt.Errorf("coll: multiport plane %d: %w", k, err)
		}
	}
	return nil
}

// bucket is the Bucket allreduce. Each ring reduce-scatter runs in place, as
// RingAllreduce's does: the rank's own block of the segment ends fully
// reduced, and the matching ring allgather overwrites the others.
func (s *torusSched) bucket(c fabric.Comm, buf []int32, op Op) error {
	if err := checkBlocks(len(buf), s.tor.P()); err != nil {
		return err
	}
	type phase struct {
		sub fabric.Comm
		me  int
		seg []int32
	}
	phases := make([]phase, 0, s.tor.NDims())
	seg := buf
	rsLen := 0 // steps of the reduce-scatter phases so far
	for d, qd := range s.tor.Dims {
		if qd == 1 {
			continue
		}
		sub, err := Group(Offset(c, rsLen), s.tor.Line(c.Rank(), d))
		if err != nil {
			return err
		}
		rsLen += qd - 1
		me := sub.Rank()
		if err := ringPlan(qd, len(seg), 1).run(&ctx{c: sub}, me, seg, 0, qd-1, &op); err != nil {
			return err
		}
		phases = append(phases, phase{sub: sub, me: me, seg: seg})
		bs := len(seg) / qd
		seg = seg[me*bs : (me+1)*bs]
	}
	for k := len(phases) - 1; k >= 0; k-- {
		ph := phases[k]
		qd := ph.sub.Size()
		if err := ringPlan(qd, len(ph.seg), 0).run(&ctx{c: Offset(ph.sub, rsLen)}, ph.me, ph.seg, 0, qd-1, nil); err != nil {
			return err
		}
	}
	return nil
}

// line returns the calling rank's sub-communicator of dimension d's tree
// phase, or nil when the rank sits out that phase: the dimension is trivial,
// or its trailing coordinates my[d+1:] differ from the root's.
func (s *torusSched) line(c fabric.Comm, my []int, d int) (fabric.Comm, error) {
	if s.tor.Dims[d] == 1 || !slices.Equal(my[d+1:], s.rc[d+1:]) {
		return nil, nil
	}
	return Group(Offset(c, s.start[d]), s.tor.Line(c.Rank(), d))
}

// bcast broadcasts buf from the root one dimension at a time, first to last.
func (s *torusSched) bcast(c fabric.Comm, buf []int32) error {
	my := s.tor.Coord(c.Rank())
	for d := range s.trees {
		sub, err := s.line(c, my, d)
		if err != nil {
			return err
		}
		if sub == nil {
			continue
		}
		if err := Bcast(sub, s.trees[d], buf); err != nil {
			return err
		}
	}
	return nil
}

// reduce reverses bcast: per-dimension tree reductions walking the
// dimensions from last to first. out receives the result at the root.
func (s *torusSched) reduce(c fabric.Comm, in, out []int32, op Op) error {
	if c.Rank() == s.root && len(out) != len(in) {
		return fmt.Errorf("coll: reduce out has %d elements, want %d", len(out), len(in))
	}
	my := s.tor.Coord(c.Rank())
	acc := in // Reduce leaves its input alone
	for d := len(s.trees) - 1; d >= 0; d-- {
		sub, err := s.line(c, my, d)
		if err != nil {
			return err
		}
		if sub == nil {
			continue
		}
		if my[d] != s.rc[d] {
			return Reduce(sub, s.trees[d], acc, nil, op) // contributes; not on the path to the root
		}
		res := make([]int32, len(acc))
		if err := Reduce(sub, s.trees[d], acc, res, op); err != nil {
			return err
		}
		acc = res
	}
	copy(out, acc)
	return nil
}
