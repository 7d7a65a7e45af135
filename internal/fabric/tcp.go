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
// uint32 handshake carrying the dialing rank.
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
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	from := int(binary.LittleEndian.Uint32(hdr[:]))
	var frame [16]byte
	for {
		if _, err := io.ReadFull(conn, frame[:]); err != nil {
			return
		}
		step := int(binary.LittleEndian.Uint32(frame[0:4]))
		sub := int(binary.LittleEndian.Uint32(frame[4:8]))
		count := int(binary.LittleEndian.Uint32(frame[8:12]))
		// frame[12:16] is reserved padding keeping the header 16 bytes.
		payload := make([]byte, 4*count)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		msg := message{from: from, step: step, sub: sub, n: int32(count)}
		dst := msg.inline[:]
		if count > inlineElems {
			msg.data = make([]int32, count)
			dst = msg.data
		}
		for i := 0; i < count; i++ {
			dst[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		if err := f.boxes[rank].put(msg); err != nil {
			return
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
