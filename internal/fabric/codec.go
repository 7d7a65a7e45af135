package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary trace codec: the on-disk format of internal/tracestore. The format
// is compact (each distinct step body stored once, a run table for the step
// index, delta-zigzag varints that exploit the sorted (from, to) order within
// a step), versioned (CodecVersion joins the store's content address, so a
// format change can never misparse old files as new ones) and self-checking
// (a CRC over the payload turns torn or corrupted writes into decode errors
// instead of silently wrong traces). It stores exactly what a Trace holds:
//
//	magic "BTRC"
//	uvarint  version, p, classes (non-empty step bodies)
//	classes × uvarint count (records in class 1, 2, …; ≥ 1)
//	uvarint  runs (non-empty steps)
//	runs ×   uvarint gap (empty steps skipped since the previous run),
//	         uvarint class (of this step; 1 … classes)
//	n ×      zigzag Δfrom, zigzag Δto (against the previous record), uvarint elems
//	uint32   little-endian CRC-32 (IEEE) of everything after the magic
//
// n is the sum of the class counts: the records are the classes' bodies,
// class after class. Classes are numbered in order of first use, so a run's
// class is at most one above every class the runs before it named. The step
// index is a run table rather than one class per step because torus
// schedules number their phases 4096 steps apart: a few hundred records reach
// step 28 675.
//
// The decoder does not re-hash the bodies, so a file may hold two equal
// classes; such a trace replays exactly like its deduplicated form and costs
// only the bytes the file spent on the copy.

// CodecVersion identifies the trace wire format. Bump it on any encoding
// change; the trace store folds it into every content address, so files
// written by older codecs are never asked for again (and Prewarm evicts them
// as undecodable).
const CodecVersion = 3

// Decoder bounds. A decoded Trace allocates a per-step index whatever the
// record count (sparse schedules are real: a quarter of LUMI's stored traces
// have empty steps, the sparsest 137 steps per record), and its consumers
// allocate per-rank scratch, so the header's rank count and the run table's
// last step are capped before anything is sized by them — a CRC-valid file of
// a few bytes must not cost gigabytes. Both caps leave ≥ 64× headroom over the
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
	n, classes := tr.NumRecords(), tr.NumClasses()-1
	var table []byte
	runs, next := 0, 0 // next: the step after the previous run's
	for s, c := range tr.stepClass {
		if c != 0 {
			table = binary.AppendUvarint(table, uint64(s-next))
			table = binary.AppendUvarint(table, uint64(c))
			runs, next = runs+1, s+1
		}
	}
	buf := make([]byte, 0, 32+2*classes+len(table)+6*n)
	buf = binary.AppendUvarint(buf, CodecVersion)
	buf = binary.AppendUvarint(buf, uint64(tr.P))
	buf = binary.AppendUvarint(buf, uint64(classes))
	for c := 1; c <= classes; c++ {
		buf = binary.AppendUvarint(buf, uint64(tr.classOff[c+1]-tr.classOff[c]))
	}
	buf = binary.AppendUvarint(buf, uint64(runs))
	buf = append(buf, table...)
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
// rank or step counts above the decoder bounds, more records or classes than
// the payload can hold, and a run table that names a class out of range or
// out of first-use order, or leaves one unused.
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
	runs := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// The run table is walked twice — first to validate it and find the last
	// step, so the index is sized by a checked number, then to fill the index.
	// A lying runs field costs nothing: no allocation is sized by it, and the
	// walk stops at the first truncated varint.
	table := d
	lastStep, used := int64(-1), uint64(0)
	for r := uint64(0); r < runs; r++ {
		gap, c := d.uvarint(), d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if gap >= uint64(maxTraceSteps-1-lastStep) {
			return nil, fmt.Errorf("fabric: trace run %d: step exceeds the %d-step bound", r, maxTraceSteps)
		}
		if c == 0 || c > classes || c > used+1 {
			return nil, fmt.Errorf("fabric: trace run %d: class %d, want 1 … %d", r, c, min(classes, used+1))
		}
		lastStep += 1 + int64(gap)
		used = max(used, c)
	}
	if used != classes {
		return nil, fmt.Errorf("fabric: trace runs use %d of %d classes", used, classes)
	}
	stepClass := make([]int32, lastStep+1)
	next := 0 // first index entry not yet written; the skipped steps stay class 0
	for r := uint64(0); r < runs; r++ {
		next += int(table.uvarint())
		stepClass[next] = int32(table.uvarint())
		next++
	}

	n := int(classOff[classes+1])
	from, to, elems := makeColumns(n)
	var prevFrom, prevTo int64
	for i := 0; i < n; i++ {
		recFrom := prevFrom + d.varint()
		recTo := prevTo + d.varint()
		recElems := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
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
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("fabric: %d trailing bytes after trace", len(d.buf))
	}
	return newTrace(int(p), from, to, elems, classOff, stepClass), nil
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
