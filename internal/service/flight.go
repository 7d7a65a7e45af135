package service

import (
	"context"
	"io"
	"net/http"
	"sync"

	"binetrees/internal/obs"
)

// broadcast is an append-only byte stream with any number of readers: the
// flight leader renders into it while every request on the same flight —
// including ones that join mid-render — streams it from offset zero. Bytes
// at an index below the published length are never rewritten, so readers
// copy nothing and hold no lock while writing chunks to their connections.
type broadcast struct {
	// trace is the flight leader's request trace, set before the broadcast
	// is published and immutable after: followers read it for the stage
	// breakdown of the render they joined.
	trace *obs.Trace

	// refs counts requests attached to the flight and cancel aborts its
	// render context; both are guarded by the owning flightGroup's mutex,
	// not b.mu. When the last reader leaves an unfinished flight, the group
	// cancels it so its cells stop dispatching (see flightGroup.release).
	refs   int
	cancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	done bool
	err  error
}

func newBroadcast() *broadcast {
	b := &broadcast{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Write appends a rendered chunk and wakes every streaming reader.
func (b *broadcast) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	b.mu.Unlock()
	return len(p), nil
}

// finish marks the stream complete with the render's error and wakes all
// readers. Write must not be called afterwards.
func (b *broadcast) finish(err error) {
	b.mu.Lock()
	b.done, b.err = true, err
	b.cond.Broadcast()
	b.mu.Unlock()
}

// finished reports whether the stream has completed (successfully or not).
func (b *broadcast) finished() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.done
}

// wake kicks the condition so readers re-check their contexts; registered
// via context.AfterFunc per waiting reader.
func (b *broadcast) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// waitReady blocks until the stream has produced its first byte or finished,
// and returns the render error if it failed before producing any output —
// the window in which a handler can still choose the HTTP status code.
func (b *broadcast) waitReady(ctx context.Context) error {
	defer context.AfterFunc(ctx, b.wake)()
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.buf) == 0 && !b.done {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.cond.Wait()
	}
	if len(b.buf) == 0 && b.err != nil {
		return b.err
	}
	return nil
}

// streamTo copies the broadcast to w from offset zero as it grows, flushing
// after every chunk when w supports it, until the stream finishes, the
// reader's context is cancelled, or w fails (a disconnected client). It
// returns the bytes written and the first error among those.
func (b *broadcast) streamTo(ctx context.Context, w io.Writer) (int64, error) {
	defer context.AfterFunc(ctx, b.wake)()
	fl, _ := w.(http.Flusher)
	var off int
	for {
		b.mu.Lock()
		for off == len(b.buf) && !b.done && ctx.Err() == nil {
			b.cond.Wait()
		}
		// Snapshot the slice header under the lock — Write's append may
		// reassign it concurrently; the published bytes themselves are
		// immutable, so the snapshot is safely read lock-free.
		buf := b.buf
		end := len(buf)
		done, err := b.done, b.err
		b.mu.Unlock()
		if off < end {
			n, werr := w.Write(buf[off:end])
			off += n
			if werr != nil {
				return int64(off), werr
			}
			if fl != nil {
				fl.Flush()
			}
			continue
		}
		if done {
			return int64(off), err
		}
		if cerr := ctx.Err(); cerr != nil {
			return int64(off), cerr
		}
	}
}

// flightGroup deduplicates identical concurrent requests: all requests
// sharing a compiled-plan key attach to one in-flight render (singleflight),
// so a thundering herd of the same artifact executes each schedule once and
// every caller streams the same bytes. When adm is set, brand-new flights
// pass admission control before (or while queued, before) rendering;
// followers always attach for free, since joining adds no work.
type flightGroup struct {
	adm *admission // nil: every new flight renders immediately

	mu sync.Mutex
	m  map[string]*broadcast
	wg sync.WaitGroup
}

// do returns the broadcast carrying the rendering for key, launching render
// on a new goroutine when no identical request is in flight. joined reports
// whether an existing flight was reused — in which case tr (the caller's
// request trace) is discarded and the broadcast carries the leader's. shed
// reports that admission rejected a brand-new flight (b is nil); joins are
// never shed. The render's context derives from parent (the server
// lifetime) and is additionally cancelled if every attached reader leaves
// before the render finishes — abandoned work stops submitting cells
// instead of warming caches nobody asked for.
//
// Every non-shed caller holds a reference on the returned broadcast and
// must pair it with release(key, b) when done streaming.
func (g *flightGroup) do(parent context.Context, key string, tr *obs.Trace, render func(ctx context.Context, w io.Writer) error) (b *broadcast, joined, shed bool) {
	g.mu.Lock()
	if b, ok := g.m[key]; ok {
		b.refs++
		g.mu.Unlock()
		return b, true, false
	}
	// Admission runs under the group lock so the queue-length check is
	// serialized and a herd on one key can never split across decisions.
	queued := false
	if g.adm != nil {
		switch g.adm.decide() {
		case admitNow:
		case admitQueue:
			queued = true
		case admitShed:
			g.mu.Unlock()
			return nil, false, true
		}
	}
	fctx, cancel := context.WithCancel(parent)
	b = newBroadcast()
	b.trace = tr
	b.refs = 1
	b.cancel = cancel
	if g.m == nil {
		g.m = map[string]*broadcast{}
	}
	g.m[key] = b
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		defer cancel()
		if queued {
			if err := g.adm.await(fctx); err != nil {
				// Abandoned (or shut down) while waiting for a token: the
				// render never ran, so there is no token to release.
				b.finish(err)
				g.remove(key, b)
				return
			}
		}
		if g.adm != nil {
			defer g.adm.release()
		}
		b.finish(render(fctx, b))
		g.remove(key, b)
	}()
	return b, false, false
}

// release drops a reader's reference. When the last reader leaves a flight
// that has not finished, the flight is abandoned: removed from the table
// (so a retry starts a fresh render) and its context cancelled, which makes
// ForEachCtx stop dispatching its remaining cells and frees its admission
// token — the mechanism that lets the pool drain under a client-disconnect
// storm.
func (g *flightGroup) release(key string, b *broadcast) {
	g.mu.Lock()
	b.refs--
	abandoned := b.refs == 0 && !b.finished()
	if abandoned && g.m[key] == b {
		delete(g.m, key)
	}
	g.mu.Unlock()
	if abandoned {
		b.cancel()
	}
}

// remove deletes the flight from the table if it still owns its key (an
// abandoned flight may have been replaced by a fresh render already).
func (g *flightGroup) remove(key string, b *broadcast) {
	g.mu.Lock()
	if g.m[key] == b {
		delete(g.m, key)
	}
	g.mu.Unlock()
}

// active reports the number of in-table flights (rendering or queued).
func (g *flightGroup) active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// wait blocks until every launched render has finished. Flights outlive
// their requests by design, so a server shutting shared resources down (the
// resident Runner) must drain them first.
func (g *flightGroup) wait() { g.wg.Wait() }
