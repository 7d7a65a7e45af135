package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testTransport(t *testing.T, mk func(p int) Fabric) {
	t.Helper()

	t.Run("PairwisePingPong", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, 0, []int32{1, 2, 3}); err != nil {
					return err
				}
				buf := make([]int32, 3)
				if err := c.Recv(1, 1, 0, buf); err != nil {
					return err
				}
				for i, v := range buf {
					if v != int32(10*(i+1)) {
						return fmt.Errorf("got %v", buf)
					}
				}
				return nil
			}
			buf := make([]int32, 3)
			if err := c.Recv(0, 0, 0, buf); err != nil {
				return err
			}
			return c.Send(0, 1, 0, []int32{10, 20, 30})
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("OutOfOrderMatching", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			if c.Rank() == 0 {
				// Send tags in reverse order of how they will be received.
				for tag := 4; tag >= 0; tag-- {
					if err := c.Send(1, tag, 0, []int32{int32(tag)}); err != nil {
						return err
					}
				}
				return nil
			}
			for tag := 0; tag <= 4; tag++ {
				buf := make([]int32, 1)
				if err := c.Recv(0, tag, 0, buf); err != nil {
					return err
				}
				if buf[0] != int32(tag) {
					return fmt.Errorf("tag %d carried %d", tag, buf[0])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SubTagsDistinguishSegments", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			if c.Rank() == 0 {
				for sub := 0; sub < 8; sub++ {
					if err := c.Send(1, 7, sub, []int32{int32(100 + sub)}); err != nil {
						return err
					}
				}
				return nil
			}
			for sub := 7; sub >= 0; sub-- {
				buf := make([]int32, 1)
				if err := c.Recv(0, 7, sub, buf); err != nil {
					return err
				}
				if buf[0] != int32(100+sub) {
					return fmt.Errorf("sub %d carried %d", sub, buf[0])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("AllToAllExchange", func(t *testing.T) {
		p := 8
		f := mk(p)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			for to := 0; to < p; to++ {
				if to == c.Rank() {
					continue
				}
				if err := c.Send(to, 0, 0, []int32{int32(c.Rank())}); err != nil {
					return err
				}
			}
			for from := 0; from < p; from++ {
				if from == c.Rank() {
					continue
				}
				buf := make([]int32, 1)
				if err := c.Recv(from, 0, 0, buf); err != nil {
					return err
				}
				if buf[0] != int32(from) {
					return fmt.Errorf("from %d carried %d", from, buf[0])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("LengthMismatchFails", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, 0, []int32{1, 2})
			}
			buf := make([]int32, 3)
			if err := c.Recv(0, 0, 0, buf); err == nil {
				return fmt.Errorf("length mismatch not detected")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SendCopiesPayload", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		err := Run(f, func(c Comm) error {
			if c.Rank() == 0 {
				data := []int32{42}
				if err := c.Send(1, 0, 0, data); err != nil {
					return err
				}
				data[0] = 7 // must not affect the in-flight message
				return nil
			}
			time.Sleep(10 * time.Millisecond)
			buf := make([]int32, 1)
			if err := c.Recv(0, 0, 0, buf); err != nil {
				return err
			}
			if buf[0] != 42 {
				return fmt.Errorf("payload aliased sender buffer: %d", buf[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SelfSendRejected", func(t *testing.T) {
		f := mk(2)
		defer f.Close()
		if err := f.Comm(0).Send(0, 0, 0, []int32{1}); err == nil {
			t.Fatal("self send not rejected")
		}
	})
}

func TestMemTransport(t *testing.T) {
	testTransport(t, func(p int) Fabric { return NewMem(p) })
}

func TestTCPTransport(t *testing.T) {
	testTransport(t, func(p int) Fabric {
		f, err := NewTCP(p)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
}

func TestMemTimeout(t *testing.T) {
	f := NewMem(2)
	defer f.Close()
	f.SetTimeout(20 * time.Millisecond)
	err := f.Comm(0).Recv(1, 0, 0, make([]int32, 1))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want timeout", err)
	}
}

func TestScaledTimeout(t *testing.T) {
	if got := ScaledTimeout(0); got != DefaultTimeout {
		t.Fatalf("zero-message budget: %v, want %v", got, DefaultTimeout)
	}
	if got, want := ScaledTimeout(1_000_000), DefaultTimeout+1_000_000*PerMessageBudget; got != want {
		t.Fatalf("1M-message budget: %v, want %v", got, want)
	}
	if got, want := ScaledTimeout(1<<40), DefaultTimeout+MaxBudget; got != want {
		t.Fatalf("huge budget not capped: %v, want %v", got, want)
	}
}

// longSchedule is the deadline-scaling scenario: rank 0 streams `msgs` tiny
// messages, stalls, then sends a final one that rank 1 has been blocked on
// all along. The final receive must wait out the stall, which only a budget
// scaled to the schedule length allows under a short base timeout.
func longSchedule(f Fabric, msgs int, stall time.Duration) error {
	return Run(f, func(c Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, 0, i, []int32{int32(i)}); err != nil {
					return err
				}
			}
			time.Sleep(stall)
			return c.Send(1, 1, 0, []int32{-1})
		}
		return c.Recv(0, 1, 0, make([]int32, 1))
	})
}

// TestDeadlineScalesWithScheduleLength pins the fig11b -full fix: a long
// schedule under an artificially short base timeout succeeds when the
// Recorder auto-scales the deadline with the trace length, and the same
// schedule fails with scaling off (no Recorder, flat base timeout).
func TestDeadlineScalesWithScheduleLength(t *testing.T) {
	const msgs = 16384 // budget: 16384 × PerMessageBudget ≈ 327ms
	base := 20 * time.Millisecond
	stall := 150 * time.Millisecond

	raw := NewMem(2)
	raw.SetTimeout(base)
	err := longSchedule(raw, msgs, stall)
	raw.Close()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("flat base timeout survived the stall: %v", err)
	}

	scaled := NewMem(2)
	scaled.SetTimeout(base)
	rec := NewRecorder(scaled)
	defer rec.Close()
	if err := longSchedule(rec, msgs, stall); err != nil {
		t.Fatalf("auto-scaled deadline timed out: %v", err)
	}
	if got := rec.Trace().NumRecords(); got != msgs+1 {
		t.Fatalf("recorded %d messages, want %d", got, msgs+1)
	}
}

// TestSetBudgetExtendsBlockedReceive pins the live re-evaluation: a budget
// raised while the receiver is already blocked extends the wait in place.
func TestSetBudgetExtendsBlockedReceive(t *testing.T) {
	f := NewMem(2)
	defer f.Close()
	f.SetTimeout(30 * time.Millisecond)
	err := Run(f, func(c Comm) error {
		if c.Rank() == 0 {
			time.Sleep(10 * time.Millisecond) // let rank 1 block first
			f.SetBudget(100_000)              // ≈ 2s allowance
			time.Sleep(100 * time.Millisecond)
			return c.Send(1, 0, 0, []int32{7})
		}
		return c.Recv(0, 0, 0, make([]int32, 1))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBudgetMonotone pins BudgetSetter's only-grow contract: a stale raise
// landing after a larger one (concurrent granters race their SetBudget
// calls) must not shrink the allowance.
func TestBudgetMonotone(t *testing.T) {
	f := NewMem(2)
	defer f.Close()
	f.SetBudget(100_000)
	want := ScaledTimeout(100_000)
	if got := f.recvTimeout(); got != want {
		t.Fatalf("budget: %v, want %v", got, want)
	}
	f.SetBudget(1) // stale raise
	if got := f.recvTimeout(); got != want {
		t.Fatalf("stale raise shrank the budget: %v, want %v", got, want)
	}
	f.SetBudget(200_000)
	if got, want := f.recvTimeout(), ScaledTimeout(200_000); got != want {
		t.Fatalf("larger raise ignored: %v, want %v", got, want)
	}
}

func TestTCPSetBudget(t *testing.T) {
	f, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.SetTimeout(20 * time.Millisecond)
	f.SetBudget(100_000) // ≈ 2s allowance
	err = Run(f, func(c Comm) error {
		if c.Rank() == 0 {
			time.Sleep(100 * time.Millisecond)
			return c.Send(1, 0, 0, []int32{7})
		}
		return c.Recv(0, 0, 0, make([]int32, 1))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemClosedFabric(t *testing.T) {
	f := NewMem(2)
	f.Close()
	if err := f.Comm(0).Send(1, 0, 0, []int32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := f.Comm(0).Recv(1, 0, 0, make([]int32, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	f := NewMem(2)
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		errc <- f.Comm(0).Recv(1, 0, 0, make([]int32, 1))
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	wg.Wait()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v", err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	f := NewMem(2)
	defer f.Close()
	err := Run(f, func(c Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	f := NewMem(4)
	defer f.Close()
	want := errors.New("rank failure")
	err := Run(f, func(c Comm) error {
		if c.Rank() == 2 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestRecorderCapturesTrace(t *testing.T) {
	rec := NewRecorder(NewMem(4))
	defer rec.Close()
	err := Run(rec, func(c Comm) error {
		// Step 0: ring shift; step 1: rank 0 segments a message to rank 2.
		next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
		if err := c.Send(next, 0, 0, make([]int32, 10)); err != nil {
			return err
		}
		if err := c.Recv(prev, 0, 0, make([]int32, 10)); err != nil {
			return err
		}
		switch c.Rank() {
		case 0:
			for sub := 0; sub < 3; sub++ {
				if err := c.Send(2, 1, sub, make([]int32, 5)); err != nil {
					return err
				}
			}
		case 2:
			for sub := 0; sub < 3; sub++ {
				if err := c.Recv(0, 1, sub, make([]int32, 5)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr.P != 4 {
		t.Fatalf("P = %d", tr.P)
	}
	if got, want := tr.NumRecords(), 4+3; got != want {
		t.Fatalf("%d records, want %d", got, want)
	}
	lo0, hi0 := tr.StepBounds(0)
	lo1, hi1 := tr.StepBounds(1)
	if tr.NumSteps() != 2 || hi0-lo0 != 4 || hi1-lo1 != 3 {
		t.Fatalf("steps: %d, bounds [%d,%d) [%d,%d)", tr.NumSteps(), lo0, hi0, lo1, hi1)
	}
	if tr.TotalElems() != 4*10+3*5 {
		t.Fatalf("total elems %d", tr.TotalElems())
	}
	// Determinism: records sorted by (step, from, to, sub).
	recs := records(tr)
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.Step > b.Step || (a.Step == b.Step && a.From > b.From) {
			t.Fatalf("trace not sorted: %+v before %+v", a, b)
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	p := 256
	f := NewMem(p)
	defer f.Close()
	// Butterfly-style exchange across 8 steps with payload verification.
	err := Run(f, func(c Comm) error {
		for step := 0; (1 << step) < p; step++ {
			peer := c.Rank() ^ (1 << step)
			want := int32(peer*100 + step)
			if err := c.Send(peer, step, 0, []int32{int32(c.Rank()*100 + step)}); err != nil {
				return err
			}
			buf := make([]int32, 1)
			if err := c.Recv(peer, step, 0, buf); err != nil {
				return err
			}
			if buf[0] != want {
				return fmt.Errorf("step %d: got %d want %d", step, buf[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
