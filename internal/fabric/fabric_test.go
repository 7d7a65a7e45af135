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

// TestWatchdog pins what a receive timeout means on every fabric: not "this
// receive waited too long" but "nothing was delivered anywhere for a whole
// timeout". Rank 2 blocks on a message from rank 0 while ranks 0 and 1
// ping-pong.
func TestWatchdog(t *testing.T) {
	const timeout = 40 * time.Millisecond
	short := func(f interface {
		Fabric
		SetTimeout(time.Duration)
	}) Fabric {
		f.SetTimeout(timeout)
		return f
	}
	kinds := []struct {
		name string
		mk   func(t *testing.T) Fabric
	}{
		{"Mem", func(*testing.T) Fabric { return short(NewMem(3)) }},
		{"TCP", func(t *testing.T) Fabric {
			f, err := NewTCP(3)
			if err != nil {
				t.Fatal(err)
			}
			return short(f)
		}},
		{"RecordedMem", func(*testing.T) Fabric { return NewRecorder(short(NewMem(3))) }},
	}
	// pingPong bounces messages between ranks 0 and 1 until rank 0's more()
	// says stop, which rank 1 learns from the payload; rank 1 calls last()
	// just before the send that is the fabric's final delivery.
	pingPong := func(c Comm, more func(round int) bool, last func()) error {
		buf := make([]int32, 1)
		for i := 0; buf[0] >= 0; i++ {
			if c.Rank() == 0 {
				if !more(i) {
					buf[0] = -1
				}
				if err := c.Send(1, i, 0, buf); err != nil {
					return err
				}
				if err := c.Recv(1, i, 0, buf); err != nil {
					return err
				}
			} else {
				if err := c.Recv(0, i, 0, buf); err != nil {
					return err
				}
				if buf[0] < 0 {
					last()
				}
				if err := c.Send(0, i, 0, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, k := range kinds {
		t.Run(k.name+"/BusyFabricKeepsBlockedReceiveAlive", func(t *testing.T) {
			t.Parallel()
			f := k.mk(t)
			defer f.Close()
			start := time.Now()
			err := Run(f, func(c Comm) error {
				if c.Rank() == 2 {
					return c.Recv(0, 0, 1, make([]int32, 1))
				}
				busy := func(int) bool { return time.Since(start) < 5*timeout }
				if err := pingPong(c, busy, func() {}); err != nil {
					return err
				}
				if c.Rank() == 0 {
					return c.Send(2, 0, 1, []int32{7})
				}
				return nil
			})
			if err != nil {
				t.Fatalf("receive blocked %v on a busy fabric: %v", time.Since(start), err)
			}
		})
		t.Run(k.name+"/QuietFabricFailsWithinTwoTimeouts", func(t *testing.T) {
			t.Parallel()
			f := k.mk(t)
			defer f.Close()
			const rounds, slack = 50_000, 250 * time.Millisecond // two deliveries a round
			var quiet, failed time.Time
			err := Run(f, func(c Comm) error {
				if c.Rank() == 2 {
					err := c.Recv(0, 0, 1, make([]int32, 1))
					failed = time.Now()
					return err
				}
				return pingPong(c, func(i int) bool { return i < rounds-1 }, func() { quiet = time.Now() })
			})
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want timeout", err)
			}
			if waited := failed.Sub(quiet); waited < timeout || waited > 2*timeout+slack {
				t.Fatalf("failed %v after the last delivery; want between %v and %v (+%v slack)",
					waited, timeout, 2*timeout, slack)
			}
		})
		t.Run(k.name+"/IdleFabricTimesOut", func(t *testing.T) {
			t.Parallel()
			f := k.mk(t)
			defer f.Close()
			start := time.Now()
			err := f.Comm(0).Recv(1, 0, 0, make([]int32, 1))
			if !errors.Is(err, ErrTimeout) || time.Since(start) < timeout {
				t.Fatalf("got %v after %v, want timeout after %v", err, time.Since(start), timeout)
			}
		})
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
	if got, want := tr.Messages(), 4+3; got != want {
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
