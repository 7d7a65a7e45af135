package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// tcpFrame encodes one frame as TCP.Send writes it.
func tcpFrame(step, sub uint32, count uint32, payload ...int32) []byte {
	out := binary.LittleEndian.AppendUint32(nil, step)
	out = binary.LittleEndian.AppendUint32(out, sub)
	out = binary.LittleEndian.AppendUint32(out, count)
	out = append(out, 0, 0, 0, 0)
	for _, v := range payload {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

// tcpStream is a connection's bytes: the handshake, then the frames.
func tcpStream(from uint32, frames ...[]byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, from), bytes.Join(frames, nil)...)
}

// acceptedFrames is the frame reader's contract, written out independently:
// the frames a stream to rank of p delivers, each as its header and payload
// bytes.
func acceptedFrames(in []byte, rank, p int) [][]byte {
	if len(in) < 4 {
		return nil
	}
	if from := binary.LittleEndian.Uint32(in); from >= uint32(p) || from == uint32(rank) {
		return nil
	}
	var frames [][]byte
	for rest := in[4:]; len(rest) >= 16; {
		count := uint64(binary.LittleEndian.Uint32(rest[8:]))
		if count > maxFrameElems || uint64(len(rest)) < 16+4*count {
			break
		}
		frames = append(frames, rest[:16+4*count])
		rest = rest[16+4*count:]
	}
	return frames
}

// FuzzTCPFrame feeds the frame reader arbitrary connection bytes, addressed
// to rank 1 of 4: it must never panic, must allocate no more than the frame
// bound allows, and must deliver exactly the frames acceptedFrames finds —
// each once, in order, with its handshake rank, tags and payload.
func FuzzTCPFrame(f *testing.F) {
	const rank, p = 1, 4
	f.Add(tcpStream(0, tcpFrame(3, 1, 1, 7), tcpFrame(4, 0, 3, 1, -2, 3), tcpFrame(5, 0, 0)))
	f.Add(tcpStream(3, tcpFrame(0, 0, 2, 1<<31-1, -1<<31)))
	f.Add(tcpStream(rank, tcpFrame(0, 0, 1, 1)))                      // from itself
	f.Add(tcpStream(p, tcpFrame(0, 0, 1, 1)))                         // from outside [0, p)
	f.Add(tcpStream(0, tcpFrame(0, 0, maxFrameElems+1)))              // over the bound
	f.Add(tcpStream(0, tcpFrame(0, 0, 1<<32-1)))                      // the old 16 GiB header
	f.Add(tcpStream(0, tcpFrame(0, 0, maxFrameElems)))                // at the bound, no payload
	f.Add(tcpStream(0, tcpFrame(0, 0, 2000, make([]int32, 1500)...))) // cut inside the payload
	f.Fuzz(func(t *testing.T, in []byte) {
		want := acceptedFrames(in, rank, p)
		from := -1
		if len(in) >= 4 {
			from = int(binary.LittleEndian.Uint32(in))
		}
		var got int
		deliver := func(m message) error {
			if got >= len(want) {
				t.Fatalf("delivery %d of %d accepted frames", got+1, len(want))
			}
			fr := want[got]
			got++
			if m.from != from || m.step != int(binary.LittleEndian.Uint32(fr)) ||
				m.sub != int(binary.LittleEndian.Uint32(fr[4:])) || int(m.n) != len(fr[16:])/4 {
				t.Fatalf("frame %d delivered as from=%d step=%d sub=%d n=%d", got, m.from, m.step, m.sub, m.n)
			}
			for i, v := range m.payload() {
				if v != int32(binary.LittleEndian.Uint32(fr[16+4*i:])) {
					t.Fatalf("frame %d: element %d = %d", got, i, v)
				}
			}
			return nil
		}
		var err error
		alloc := allocatedBytes(func() {
			got = 0
			err = readFrames(bytes.NewReader(in), rank, p, deliver)
		})
		if got != len(want) {
			t.Fatalf("%d deliveries, %d accepted frames", got, len(want))
		}
		if err == nil {
			t.Fatal("the stream ended without an error")
		}
		// Every accepted frame's payload, at most one bounded frame cut
		// short, and the reader's own chunk and bookkeeping.
		if limit := uint64(len(in) + 4*maxFrameElems + 1<<16); alloc > limit {
			t.Fatalf("%d-byte stream allocated %d bytes (limit %d)", len(in), alloc, limit)
		}
	})
}

// TestTCPRejectsForeignStreams dials a live TCP fabric's listener the way
// any local process can: a handshake naming the rank itself or a rank that
// does not exist, or a frame over the bound, gets the connection closed, and
// the fabric still delivers between its own ranks afterwards.
func TestTCPRejectsForeignStreams(t *testing.T) {
	f, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, stream := range map[string][]byte{
		"from itself":    tcpStream(0, tcpFrame(0, 0, 1, 1)),
		"from rank 2":    tcpStream(2, tcpFrame(0, 0, 1, 1)),
		"frame too long": tcpStream(1, tcpFrame(0, 0, maxFrameElems+1)),
	} {
		conn, err := net.Dial("tcp", f.addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var b [1]byte
		// Closed with the rest of the stream unread: EOF or a reset.
		_, err = conn.Read(b[:])
		if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("%s: read %v, want the fabric to close the connection", name, err)
		}
		conn.Close()
	}
	if err := f.Comm(0).Send(1, 0, 0, make([]int32, maxFrameElems+1)); err == nil {
		t.Error("a send over the frame bound was accepted")
	}
	if err := Run(f, func(c Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 0, 0, []int32{42})
		}
		buf := make([]int32, 1)
		return c.Recv(1, 0, 0, buf)
	}); err != nil {
		t.Fatal(err)
	}
}
