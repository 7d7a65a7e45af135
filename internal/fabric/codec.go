package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary trace codec: the on-disk format of internal/tracestore. The format
// is compact (delta-zigzag varints exploit the sorted (step, from, to, sub)
// order Recorder.Trace produces), versioned (CodecVersion joins the store's
// content address, so a format change can never misparse old files as new
// ones) and self-checking (a CRC over the payload turns torn or corrupted
// writes into decode errors instead of silently wrong traces). The encoder
// and decoder work straight off the Trace's columns; the wire bytes are
// identical to the former []Record-based codec, so existing stores stay
// warm.

// CodecVersion identifies the trace wire format. Bump it on any encoding
// change; the trace store folds it into every content address, so files
// written by older codecs are simply never found again.
const CodecVersion = 1

// Decoder bounds. A decoded Trace allocates a per-step index whatever the
// record count (sparse schedules are real: a quarter of LUMI's stored traces
// have empty steps, the sparsest 137 steps per record), and its consumers
// allocate per-rank scratch, so the header's rank count and every record's
// step are capped before anything is sized by them — a CRC-valid file of a
// few bytes must not cost gigabytes. Both caps leave ≥ 64× headroom over the
// largest schedule the registry produces at -full scale: p = 8192, and step
// numbers below 2¹⁶ (the p = 8192 ring's 2(p−1) = 16 382; the 3-D torus
// collectives' seven phases, offset 4096 steps apart, reach 28 675 at quick
// scale already).
const (
	maxTraceRanks = 1 << 20
	maxTraceSteps = 1 << 22
)

// traceMagic opens every encoded trace.
var traceMagic = [4]byte{'B', 'T', 'R', 'C'}

// EncodeTrace writes tr in the versioned binary format.
func EncodeTrace(w io.Writer, tr *Trace) error {
	n := tr.NumRecords()
	buf := make([]byte, 0, 16+10*n)
	buf = binary.AppendUvarint(buf, CodecVersion)
	buf = binary.AppendUvarint(buf, uint64(tr.P))
	buf = binary.AppendUvarint(buf, uint64(n))
	var prevStep, prevFrom, prevTo int64
	for i := 0; i < n; i++ {
		step, from, to := int64(tr.cStep[i]), int64(tr.cFrom[i]), int64(tr.cTo[i])
		buf = binary.AppendVarint(buf, step-prevStep)
		buf = binary.AppendVarint(buf, from-prevFrom)
		buf = binary.AppendVarint(buf, to-prevTo)
		buf = binary.AppendUvarint(buf, uint64(tr.cSub[i]))
		buf = binary.AppendUvarint(buf, uint64(tr.cElems[i]))
		prevStep, prevFrom, prevTo = step, from, to
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf))
	for _, chunk := range [][]byte{traceMagic[:], buf, sum[:]} {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// DecodeTraceBytes parses a trace encoded by EncodeTrace from its in-memory
// encoding (the trace store reads whole files), rejecting wrong magic,
// unknown versions, checksum mismatches, truncation, out-of-range fields,
// rank or step counts above the decoder bounds, and steps out of order
// (every writer emits them sorted).
func DecodeTraceBytes(raw []byte) (*Trace, error) {
	if len(raw) < len(traceMagic)+4 || string(raw[:4]) != string(traceMagic[:]) {
		return nil, fmt.Errorf("fabric: not an encoded trace")
	}
	payload, sum := raw[4:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, fmt.Errorf("fabric: trace checksum mismatch")
	}
	d := varintReader{buf: payload}
	version := d.uvarint()
	if version != CodecVersion {
		return nil, fmt.Errorf("fabric: trace codec version %d, want %d", version, CodecVersion)
	}
	p := d.uvarint()
	count := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if p == 0 || p > maxTraceRanks {
		return nil, fmt.Errorf("fabric: trace rank count %d out of range [1, %d]", p, maxTraceRanks)
	}
	if count > uint64(len(payload))/5 { // every record costs ≥ 5 payload bytes (5 varints)
		return nil, fmt.Errorf("fabric: trace record count %d exceeds payload", count)
	}
	n := int(count)
	step, from, to, sub, elems := makeColumns(n)
	var prevStep, prevFrom, prevTo int64
	for i := 0; i < n; i++ {
		recStep := prevStep + d.varint()
		recFrom := prevFrom + d.varint()
		recTo := prevTo + d.varint()
		recSub := int64(d.uvarint())
		recElems := int64(d.uvarint())
		if d.err != nil {
			return nil, d.err
		}
		if recStep < prevStep {
			return nil, fmt.Errorf("fabric: trace record %d: step %d follows step %d", i, recStep, prevStep)
		}
		if recStep >= maxTraceSteps {
			return nil, fmt.Errorf("fabric: trace record %d: step %d exceeds the %d-step bound", i, recStep, maxTraceSteps)
		}
		if recSub < 0 || recSub > math.MaxInt32 ||
			recElems < 0 || recElems > math.MaxInt32 ||
			recFrom < 0 || recFrom >= int64(p) || recTo < 0 || recTo >= int64(p) {
			return nil, fmt.Errorf("fabric: trace record %d out of range: step=%d from=%d to=%d sub=%d elems=%d",
				i, recStep, recFrom, recTo, recSub, recElems)
		}
		step[i] = int32(recStep)
		from[i] = int32(recFrom)
		to[i] = int32(recTo)
		sub[i] = int32(recSub)
		elems[i] = int32(recElems)
		prevStep, prevFrom, prevTo = recStep, recFrom, recTo
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("fabric: %d trailing bytes after trace", len(d.buf))
	}
	return newTraceColumns(int(p), step, from, to, sub, elems), nil
}

// varintReader consumes varints from a byte slice, latching the first error.
type varintReader struct {
	buf []byte
	err error
}

func (d *varintReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("fabric: truncated trace varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *varintReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("fabric: truncated trace varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}
