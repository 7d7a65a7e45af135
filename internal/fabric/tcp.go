package fabric

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// TCP is the socket transport: every rank owns a loopback listener and
// messages travel as length-prefixed frames over directional connections
// (dialed lazily on first send). It exists to demonstrate that the
// collectives run unchanged over a real network stack; the frame format is
//
//	uint32 from | uint32 step | uint32 sub | uint32 count | count × int32
//
// in little-endian byte order, preceded on each connection by a single
// uint32 handshake carrying the dialing rank. Its listeners accept any local
// process, so the reader trusts neither field: see readFrames.
type TCP struct {
	ranks
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex
	conns map[[2]int]net.Conn // (from, to) → dialed connection
	done  bool

	wg sync.WaitGroup
}

// NewTCP creates a TCP fabric with p ranks listening on loopback.
func NewTCP(p int) (*TCP, error) {
	f := &TCP{
		listeners: make([]net.Listener, p),
		addrs:     make([]string, p),
		conns:     map[[2]int]net.Conn{},
	}
	f.init(p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fabric: listen rank %d: %w", i, err)
		}
		f.listeners[i] = ln
		f.addrs[i] = ln.Addr().String()
		f.wg.Add(1)
		go f.acceptLoop(i, ln)
	}
	return f, nil
}

// Comm returns rank's endpoint.
func (f *TCP) Comm(rank int) Comm { return tcpComm{f.endpoint(rank), f} }

// Close shuts down listeners, connections and mailboxes.
func (f *TCP) Close() error {
	f.mu.Lock()
	f.done = true
	conns := f.conns
	f.conns = map[[2]int]net.Conn{}
	f.mu.Unlock()
	for _, ln := range f.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	f.close()
	f.wg.Wait()
	return nil
}

func (f *TCP) acceptLoop(rank int, ln net.Listener) {
	defer f.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.readLoop(rank, conn)
		}()
	}
}

func (f *TCP) readLoop(rank int, conn net.Conn) {
	defer conn.Close()
	readFrames(conn, rank, f.Size(), f.boxes[rank].put) // any error ends the connection
}

// maxFrameElems bounds a frame's element count, so a 16-byte header cannot
// make the reader allocate more than 16 MiB; Send refuses a longer payload.
const maxFrameElems = 1 << 22

// readFrames parses one connection's bytes — the dialing rank's handshake,
// then frames — handing each frame to deliver as a message, until r or
// deliver fails. A handshake naming a rank outside [0, p) or rank itself,
// and a frame longer than maxFrameElems, end the stream with an error before
// anything is delivered or allocated for them. The payload is decoded
// straight into the message's own storage.
func readFrames(r io.Reader, rank, p int, deliver func(message) error) error {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return err
	}
	from := int64(binary.LittleEndian.Uint32(hdr[:4]))
	if from >= int64(p) || from == int64(rank) {
		return fmt.Errorf("fabric: rank %d: handshake from rank %d of %d", rank, from, p)
	}
	var chunk [4096]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		// hdr[12:16] is reserved padding keeping the header 16 bytes.
		count := binary.LittleEndian.Uint32(hdr[8:12])
		if count > maxFrameElems {
			return fmt.Errorf("fabric: rank %d: %d-element frame from rank %d exceeds %d", rank, count, from, maxFrameElems)
		}
		msg := message{
			from: int(from),
			step: int(binary.LittleEndian.Uint32(hdr[0:4])),
			sub:  int(binary.LittleEndian.Uint32(hdr[4:8])),
			n:    int32(count),
		}
		dst := msg.inline[:]
		if count > inlineElems {
			msg.data = make([]int32, count)
			dst = msg.data
		}
		for dst = dst[:count]; len(dst) > 0; {
			b := chunk[:4*min(len(dst), len(chunk)/4)]
			if _, err := io.ReadFull(r, b); err != nil {
				return err
			}
			for i := range len(b) / 4 {
				dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
			dst = dst[len(b)/4:]
		}
		if err := deliver(msg); err != nil {
			return err
		}
	}
}

func (f *TCP) conn(from, to int) (net.Conn, error) {
	key := [2]int{from, to}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil, ErrClosed
	}
	if c, ok := f.conns[key]; ok {
		return c, nil
	}
	c, err := net.Dial("tcp", f.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("fabric: rank %d dialing %d: %w", from, to, err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(from))
	if _, err := c.Write(hdr[:]); err != nil {
		c.Close()
		return nil, err
	}
	f.conns[key] = c
	return c, nil
}

type tcpComm struct {
	endpoint
	f *TCP
}

func (c tcpComm) Send(to, step, sub int, data []int32) error {
	if err := c.checkPeer(to); err != nil {
		return err
	}
	if len(data) > maxFrameElems {
		return fmt.Errorf("fabric: rank %d send to %d: %d elements exceed the %d-element frame", c.rank, to, len(data), maxFrameElems)
	}
	conn, err := c.f.conn(c.rank, to)
	if err != nil {
		return err
	}
	buf := make([]byte, 16+4*len(data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(step))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(sub))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[16+4*i:], uint32(v))
	}
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("fabric: rank %d send to %d: %w", c.rank, to, err)
	}
	return nil
}
