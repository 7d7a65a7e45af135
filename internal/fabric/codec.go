package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary trace codec: the on-disk format of internal/tracestore. The format
// is compact (each distinct step body stored once, one class number per
// step, delta-zigzag varints that exploit the sorted (from, to) order within
// a step), versioned (CodecVersion joins the store's content address, so a
// format change can never misparse old files as new ones) and self-checking
// (a CRC over the payload turns torn or corrupted writes into decode errors
// instead of silently wrong traces). It stores exactly what a Trace holds:
//
//	magic "BTRC"
//	uvarint  version, p, classes (non-empty step bodies)
//	classes × uvarint count (records in class 1, 2, …; ≥ 1)
//	uvarint  steps
//	steps ×  uvarint class (of step 0, 1, …; 0 … classes, 0 for an empty step)
//	n ×      zigzag Δfrom, zigzag Δto (against the previous record), uvarint elems
//	uint32   little-endian CRC-32 (IEEE) of everything after the magic
//
// n is the sum of the class counts: the records are the classes' bodies,
// class after class. Classes are numbered in order of first use, so a step's
// class is at most one above every class the steps before it named. The
// collectives number their steps densely (a composite starts each phase
// where the one before it ends), so the step index costs about a byte a
// step; an empty step, which only hand-built traces have, costs one too.
//
// The decoder reads the records in one loop off a single cursor: a
// single-byte field (most of them: deltas within ±63, elems below 128) is
// read inline, longer ones through binary.Uvarint. It does not re-hash the
// bodies, so a file may hold two equal classes; such a trace replays exactly
// like its deduplicated form and costs only the bytes the file spent on the
// copy.

// CodecVersion identifies the trace wire format. Bump it on any encoding
// change; the trace store folds it into every content address, so files
// written by older codecs are never asked for again (and Prewarm evicts them
// as undecodable).
const CodecVersion = 4

// maxTraceRanks bounds the header's rank count. The trace's consumers
// allocate per-rank scratch, so a CRC-valid file of a few bytes must not
// name a rank count that costs gigabytes; the cap leaves 128× headroom over
// the largest schedule the registry produces at -full scale (p = 8192). The
// step index needs no cap of its own: every step costs a payload byte, so
// the decoder sizes it by a count the file's length backs.
const maxTraceRanks = 1 << 20

// traceMagic opens every encoded trace.
var traceMagic = [4]byte{'B', 'T', 'R', 'C'}

// EncodeTrace writes tr in the versioned binary format.
func EncodeTrace(w io.Writer, tr *Trace) error {
	n, classes := tr.NumRecords(), tr.NumClasses()-1
	buf := make([]byte, 0, 32+2*classes+2*len(tr.stepClass)+6*n)
	buf = binary.AppendUvarint(buf, CodecVersion)
	buf = binary.AppendUvarint(buf, uint64(tr.P))
	buf = binary.AppendUvarint(buf, uint64(classes))
	for c := 1; c <= classes; c++ {
		buf = binary.AppendUvarint(buf, uint64(tr.classOff[c+1]-tr.classOff[c]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(tr.stepClass)))
	for _, c := range tr.stepClass {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	var prevFrom, prevTo int64
	for i := 0; i < n; i++ {
		from, to := int64(tr.cFrom[i]), int64(tr.cTo[i])
		buf = binary.AppendVarint(buf, from-prevFrom)
		buf = binary.AppendVarint(buf, to-prevTo)
		buf = binary.AppendUvarint(buf, uint64(tr.cElems[i]))
		prevFrom, prevTo = from, to
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
// encoding (the trace store reads whole files), rejecting wrong magic, any
// other codec version, checksum mismatches, truncation, out-of-range fields,
// a rank count above maxTraceRanks, more records, classes or steps than the
// payload can hold, and a step index that names a class out of range or out
// of first-use order, or leaves one unused.
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
	classes := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if p == 0 || p > maxTraceRanks {
		return nil, fmt.Errorf("fabric: trace rank count %d out of range [1, %d]", p, maxTraceRanks)
	}
	// Every record costs ≥ 3 payload bytes (3 varints) and every class holds
	// ≥ 1 record; the indexes hold int32 offsets.
	maxRecords := min(uint64(len(payload))/3, math.MaxInt32)
	if classes > maxRecords {
		return nil, fmt.Errorf("fabric: trace class count %d exceeds payload", classes)
	}
	classOff := make([]int32, classes+2)
	for c := uint64(1); c <= classes; c++ {
		count := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		total := uint64(classOff[c])
		if count == 0 || count > maxRecords-total {
			return nil, fmt.Errorf("fabric: trace class %d: %d records, %d more fit the payload", c, count, maxRecords-total)
		}
		classOff[c+1] = int32(total + count)
	}
	// Every step costs ≥ 1 payload byte, so the step index is sized by a
	// count the payload backs before it is allocated.
	steps := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if steps > uint64(len(payload)-d.pos) {
		return nil, fmt.Errorf("fabric: trace step count %d exceeds payload", steps)
	}
	stepClass := make([]int32, steps)
	used := uint64(0)
	for s := range stepClass {
		c := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if c > classes || c > used+1 {
			return nil, fmt.Errorf("fabric: trace step %d: class %d, want 0 … %d", s, c, min(classes, used+1))
		}
		stepClass[s] = int32(c)
		used = max(used, c)
	}
	if used != classes {
		return nil, fmt.Errorf("fabric: trace steps use %d of %d classes", used, classes)
	}

	n := int(classOff[classes+1])
	from, to, elems := makeColumns(n)
	// The records are most of the file and most of a warm load: one loop,
	// three uvarints a record off the reader's cursor, a single-byte field
	// read inline.
	buf, pos := d.buf, d.pos
	var prevFrom, prevTo int64
	for i := 0; i < n; i++ {
		var f [3]uint64 // zigzag Δfrom, zigzag Δto, elems
		for k := range f {
			if pos < len(buf) && buf[pos] < 0x80 {
				f[k], pos = uint64(buf[pos]), pos+1
				continue
			}
			v, w := binary.Uvarint(buf[pos:])
			if w <= 0 {
				return nil, errTruncatedVarint
			}
			f[k], pos = v, pos+w
		}
		zFrom, zTo, recElems := f[0], f[1], f[2]
		recFrom := prevFrom + (int64(zFrom>>1) ^ -int64(zFrom&1)) // undo the zigzag
		recTo := prevTo + (int64(zTo>>1) ^ -int64(zTo&1))
		if recElems > math.MaxInt32 ||
			recFrom < 0 || recFrom >= int64(p) || recTo < 0 || recTo >= int64(p) {
			return nil, fmt.Errorf("fabric: trace record %d out of range: from=%d to=%d elems=%d",
				i, recFrom, recTo, recElems)
		}
		from[i] = int32(recFrom)
		to[i] = int32(recTo)
		elems[i] = int32(recElems)
		prevFrom, prevTo = recFrom, recTo
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("fabric: %d trailing bytes after trace", len(buf)-pos)
	}
	return newTrace(int(p), from, to, elems, classOff, stepClass), nil
}

var errTruncatedVarint = errors.New("fabric: truncated trace varint")

// varintReader consumes the header's and step index's uvarints from a byte
// slice, latching the first error.
type varintReader struct {
	buf []byte
	pos int // the cursor the record loop takes over
	err error
}

// uvarint reads a single-byte value first (the step index is all those below
// 128 classes). A
// failed read leaves the cursor on a byte ≥ 0x80 or at the end, so every
// later call reaches the latched error.
func (d *varintReader) uvarint() uint64 {
	if i := d.pos; i < len(d.buf) && d.buf[i] < 0x80 {
		d.pos = i + 1
		return uint64(d.buf[i])
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = errTruncatedVarint
		return 0
	}
	d.pos += n
	return v
}
