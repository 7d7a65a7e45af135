package fabric

// Mem is the in-process transport: each rank has a mailbox and Send copies
// the payload straight into the destination mailbox. It scales to thousands
// of ranks and is the default substrate for correctness tests and trace
// recording.
type Mem struct{ ranks }

// NewMem creates an in-process fabric with p ranks.
func NewMem(p int) *Mem {
	f := &Mem{}
	f.init(p)
	return f
}

// Comm returns rank's endpoint.
func (f *Mem) Comm(rank int) Comm { return memComm{f.endpoint(rank)} }

// Close shuts every mailbox down; pending receives fail with ErrClosed.
func (f *Mem) Close() error {
	f.close()
	return nil
}

type memComm struct{ endpoint }

func (c memComm) Send(to, step, sub int, data []int32) error {
	if err := c.checkPeer(to); err != nil {
		return err
	}
	return c.boxes[to].put(newMessage(c.rank, step, sub, data))
}
