package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// randomTrace builds a trace with the value ranges real recordings produce,
// in the sorted order Recorder.Trace emits.
func randomTrace(rng *rand.Rand) *Trace {
	p := 1 + rng.Intn(64)
	count := rng.Intn(200)
	var recs []Record
	step, from := 0, 0
	for i := 0; i < count; i++ {
		if rng.Intn(3) == 0 {
			step += rng.Intn(3)
			from = 0
		}
		from += rng.Intn(2)
		if from >= p {
			from = p - 1
		}
		recs = append(recs, Record{
			From:  from,
			To:    rng.Intn(p),
			Step:  step,
			Elems: rng.Intn(1 << 20),
		})
	}
	return NewTrace(p, recs)
}

func TestTraceCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := EncodeTrace(&buf, tr); err != nil {
			t.Fatalf("trace %d: encode: %v", i, err)
		}
		got, err := DecodeTraceBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("trace %d: decode: %v", i, err)
		}
		if got.P != tr.P || got.NumRecords() != tr.NumRecords() {
			t.Fatalf("trace %d: shape %d/%d, want %d/%d", i, got.P, got.NumRecords(), tr.P, tr.NumRecords())
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("trace %d: records differ", i)
		}
		checkLayout(t, got)
	}
}

func TestTraceCodecRoundTripRecorded(t *testing.T) {
	// A real recording (not just synthetic records) must survive exactly:
	// the store's correctness rests on a loaded trace being byte-for-byte
	// the recorded one.
	f := NewMem(8)
	rec := NewRecorder(f)
	defer rec.Close()
	err := Run(rec, func(c Comm) error {
		if c.Rank() == 0 {
			for to := 1; to < c.Size(); to++ {
				if err := c.Send(to, to-1, 0, make([]int32, to)); err != nil {
					return err
				}
			}
			return nil
		}
		return c.Recv(0, c.Rank()-1, 0, make([]int32, c.Rank()))
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTraceBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("decoded trace differs:\n got %+v\nwant %+v", got, tr)
	}
	checkLayout(t, got)
}

// widthTrace is one step over maxTraceRanks ranks whose record fields cross
// every varint width the decoder can accept: zigzag Δfrom and Δto of 0,
// ±63/64, ±127/128, ±2¹³, 2¹⁴, 2¹⁹ and ±(p−1) (1 to 3 bytes; the rank bound
// caps them there), with from and to stepping down to 0 and up to p−1, and
// elems at every width up to MaxInt32 (1 to 5 bytes).
func widthTrace() *Trace {
	const p = maxTraceRanks
	deltas := []int{0, 63, -63, 64, -64, 127, -127, 128, -128, 8191, -8192, 8192, 1 << 14, 1 << 19, p - 1, -(p - 1)}
	elems := []int{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 21, 1 << 28, math.MaxInt32}
	var ranks []int // each delta d appears as the step between a pair
	for _, d := range deltas {
		a := max(0, -d)
		ranks = append(ranks, a, a+d)
	}
	recs := make([]Record, len(ranks))
	for i, from := range ranks {
		recs[i] = Record{From: from, To: ranks[len(ranks)-1-i], Elems: elems[i%len(elems)]}
	}
	return NewTrace(p, recs)
}

// TestTraceCodecVarintWidths round-trips widthTrace, then pins the record
// loop's rejections to the decoder's one truncation error: an overlong
// (11-byte) varint in each field of a record, and a file cut just after a
// single-byte field.
func TestTraceCodecVarintWidths(t *testing.T) {
	tr := widthTrace()
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTraceBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("varint-width trace does not survive a round trip")
	}
	checkLayout(t, got)

	const truncated = "fabric: truncated trace varint"
	for name, payload := range varintDamage() {
		if _, err := DecodeTraceBytes(frameTrace(payload)); err == nil || err.Error() != truncated {
			t.Errorf("%s: %v, want %q", name, err, truncated)
		}
	}
}

// varintDamage returns payloads of one-record traces (p=1, one class, one
// run) that break the record region's varints.
func varintDamage() map[string][]byte {
	head := []byte{CodecVersion, 1, 1, 1, 1, 0, 1}
	record := func(fields ...[]byte) []byte {
		out := append([]byte(nil), head...)
		for _, f := range fields {
			out = append(out, f...)
		}
		return out
	}
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0) // 11 bytes: overflows 64 bits
	zero, one := []byte{0}, []byte{1}
	return map[string][]byte{
		"overlong Δfrom":      record(overlong, zero, one),
		"overlong Δto":        record(zero, overlong, one),
		"overlong elems":      record(zero, zero, overlong),
		"cut after Δfrom":     record(zero),
		"cut after Δto":       record(zero, zero),
		"cut inside Δto":      record(zero, []byte{0x80}),
		"cut after run table": record(),
	}
}

// The encodings TestTraceCodecGolden pins (and FuzzDecodeTrace seeds): one
// trace of distinct steps, one of repeated steps. v2GoldenTraceHex is the
// first trace in the retired v2 format, which must be refused.
const (
	goldenTraceHex     = "42545243030403010201030001000202030002020002ac020202ac020205017ac74b27"
	multiClassTraceHex = "425452430304030202010500010002000101030001000202040402010502040402050201f4bdaae9"
	v2GoldenTraceHex   = "42545243020404030001000202010002020002ac020202ac02020501a4cfc664"
)

// goldenTraces are the traces behind the goldens.
func goldenTraces() (distinct, repeated *Trace) {
	distinct = NewTrace(4, []Record{
		{From: 0, To: 1, Step: 0, Elems: 2},
		{From: 0, To: 2, Step: 1, Elems: 300},
		{From: 1, To: 3, Step: 1, Elems: 300},
		{From: 2, To: 0, Step: 4, Elems: 1}, // steps 2 and 3 are empty: a gap in the run table
	})
	var recs []Record
	a := []Record{{From: 0, To: 1, Elems: 2}, {From: 2, To: 3, Elems: 2}}
	b := []Record{{From: 1, To: 0, Elems: 2}, {From: 3, To: 2, Elems: 2}}
	c := []Record{{From: 0, To: 3, Elems: 1}}
	for step, body := range [][]Record{a, b, a, nil, c, a} { // A B A _ C A
		for _, r := range body {
			r.Step = step
			recs = append(recs, r)
		}
	}
	return distinct, NewTrace(4, recs)
}

// TestTraceCodecGolden pins the on-disk byte format: any codec change must
// show up here and force a CodecVersion bump (which re-addresses every
// stored file) rather than silently reinterpreting old files.
func TestTraceCodecGolden(t *testing.T) {
	distinct, repeated := goldenTraces()
	if distinct.NumClasses() != 4 || repeated.NumClasses() != 4 || repeated.NumSteps() != 6 {
		t.Fatalf("golden traces changed shape: %d and %d classes, %d steps",
			distinct.NumClasses(), repeated.NumClasses(), repeated.NumSteps())
	}
	for _, g := range []struct {
		tr  *Trace
		hex string
	}{{distinct, goldenTraceHex}, {repeated, multiClassTraceHex}} {
		var buf bytes.Buffer
		if err := EncodeTrace(&buf, g.tr); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != g.hex {
			t.Fatalf("encoding changed (bump CodecVersion!):\n got %s\nwant %s", got, g.hex)
		}
		got, err := DecodeTraceBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, g.tr) {
			t.Fatalf("golden decode differs: %+v", got)
		}
	}
}

func TestTraceCodecRejectsDamage(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Every truncation must fail cleanly.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeTraceBytes(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(raw))
		}
	}
	// Every single-byte corruption must fail cleanly (the magic check or
	// the CRC catches it).
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x5a
		if _, err := DecodeTraceBytes(bad); err == nil {
			t.Fatalf("corrupted byte %d accepted", i)
		}
	}
	// Any other version must be rejected even with a valid checksum: the
	// next one, the retired v1 layout (version, P=1, no records) and a v2
	// file, which a store written before v3 holds.
	if _, err := DecodeTraceBytes(frameTrace([]byte{CodecVersion + 1, 1, 0, 0})); err == nil {
		t.Fatal("future codec version accepted")
	}
	if _, err := DecodeTraceBytes(frameTrace([]byte{1, 1, 0})); err == nil {
		t.Fatal("v1 trace accepted")
	}
	v2, err := hex.DecodeString(v2GoldenTraceHex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTraceBytes(v2); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("v2 trace: %v, want a version mismatch", err)
	}
	// An empty trace is the smallest valid file; anything after it is not.
	if _, err := DecodeTraceBytes(frameTrace([]byte{CodecVersion, 1, 0, 0})); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
	if _, err := DecodeTraceBytes(frameTrace([]byte{CodecVersion, 1, 0, 0, 0})); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// frameTrace wraps a hand-built payload in the magic and a valid checksum,
// so the decoder's own field checks — not the CRC — are what a test hits.
func frameTrace(payload []byte) []byte {
	raw := append([]byte(nil), traceMagic[:]...)
	raw = append(raw, payload...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(payload))
}

// oneRecordTrace frames a single-record trace over p ranks at the given
// step: 21 bytes for step = 1<<26.
func oneRecordTrace(p, step uint64) []byte {
	payload := binary.AppendUvarint([]byte{CodecVersion}, p)
	payload = append(payload, 1, 1, 1) // one class of one record, one run
	payload = binary.AppendUvarint(payload, step)
	return frameTrace(append(payload, 1, 0, 0, 1)) // the run's class 1; from 0, to 0, elems 1
}

// allocatedBytes is the heap f allocates: the smallest of three readings of
// the process-wide counter, because whatever else is alive in the test
// binary (goroutines earlier tests left draining) can only add to one.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestTraceCodecBoundsAllocation pins the decoder's hardening: a CRC-valid
// file of a few bytes cannot make it size an allocation by a field the file
// chose. The 21-byte step = 1<<26 reproducer would allocate a 256 MiB step
// index; it, an oversized rank or class count and every way the class counts
// or the run table can disagree with the payload are rejected before
// anything is allocated.
func TestTraceCodecBoundsAllocation(t *testing.T) {
	bomb := oneRecordTrace(1, 1<<26)
	if len(bomb) != 21 {
		t.Fatalf("reproducer is %d bytes, want 21", len(bomb))
	}
	// p=1, one class of one record, 2 runs; run 0 at the last legal step.
	lastStep := binary.AppendUvarint([]byte{CodecVersion, 1, 1, 1, 2}, maxTraceSteps-1)
	hugeGap := binary.AppendUvarint([]byte{CodecVersion, 1, 1, 1, 1}, 1<<64-1)
	hugeRuns := binary.AppendUvarint([]byte{CodecVersion, 1, 1, 1}, 1<<60)
	hugeClasses := binary.AppendUvarint([]byte{CodecVersion, 1}, 1<<40)
	for name, raw := range map[string][]byte{
		"step 1<<26":             bomb,
		"claims 2²² steps":       oneRecordTrace(1, maxTraceSteps),
		"ranks over the bound":   oneRecordTrace(maxTraceRanks+1, 0),
		"gap past the bound":     frameTrace(append(lastStep, 1, 0, 1, 0, 0, 1)), // run 1 lands on step 2²²
		"gap overflows":          frameTrace(append(hugeGap, 1, 0, 0, 1)),
		"classes exceed payload": frameTrace(append(hugeClasses, 1, 1, 0, 1, 0, 0, 1)),
		"records exceed payload": frameTrace([]byte{CodecVersion, 1, 1, 5, 1, 0, 1, 0, 0, 1}),
		"counts exceed payload":  frameTrace([]byte{CodecVersion, 1, 2, 3, 3, 1, 0, 1, 0, 0, 1}),
		"zero-count class":       frameTrace([]byte{CodecVersion, 1, 1, 0, 1, 0, 1, 0, 0, 1}),
		"class 0 in a run":       frameTrace([]byte{CodecVersion, 1, 1, 1, 1, 0, 0, 0, 0, 1}),
		"class out of range":     frameTrace([]byte{CodecVersion, 1, 1, 1, 1, 0, 2, 0, 0, 1}),
		"class out of first-use": frameTrace([]byte{CodecVersion, 1, 2, 1, 1, 2, 0, 2, 0, 1, 0, 0, 1, 0, 0, 2}),
		"class never used":       frameTrace([]byte{CodecVersion, 1, 2, 1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 2}),
		"runs field lies":        frameTrace(append(hugeRuns, 0, 1, 0, 0, 1)),
	} {
		var err error
		got := allocatedBytes(func() { _, err = DecodeTraceBytes(raw) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got >= 1<<20 {
			t.Errorf("%s: rejected only after allocating %d bytes", name, got)
		}
	}
	// Just inside both bounds decodes: the caps reject nothing real.
	tr, err := DecodeTraceBytes(oneRecordTrace(maxTraceRanks, maxTraceSteps-1))
	if err != nil {
		t.Fatalf("trace at the bounds rejected: %v", err)
	}
	if tr.P != maxTraceRanks || tr.NumSteps() != maxTraceSteps {
		t.Fatalf("trace at the bounds decoded as p=%d, %d steps", tr.P, tr.NumSteps())
	}
	if lo, hi := tr.StepBounds(maxTraceSteps - 1); lo != 0 || hi != 1 {
		t.Fatalf("the record sits in [%d, %d) of the last step, want [0, 1)", lo, hi)
	}
	checkLayout(t, tr)
}

// FuzzDecodeTrace feeds the decoder arbitrary bytes, re-framed with a valid
// checksum so the fuzzer reaches the field checks: it must never panic, and
// whatever it accepts must have cost O(len(input)) plus the step index the
// cap allows, and must re-encode to a trace that decodes to the same records.
func FuzzDecodeTrace(f *testing.F) {
	for _, g := range []string{goldenTraceHex, multiClassTraceHex} {
		golden, err := hex.DecodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden[4 : len(golden)-4])
	}
	bomb := oneRecordTrace(1, 1<<26)
	f.Add(bomb[4 : len(bomb)-4])
	f.Add([]byte{CodecVersion, 1, 1, 0, 1, 0, 1, 0, 0, 1}) // a zero-count class
	var widths bytes.Buffer
	if err := EncodeTrace(&widths, widthTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(widths.Bytes()[4 : widths.Len()-4])
	for _, payload := range varintDamage() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		raw := frameTrace(payload)
		var tr *Trace
		var err error
		got := allocatedBytes(func() { tr, err = DecodeTraceBytes(raw) })
		// Three int32 columns per record (≤ len/3 records), the class index
		// and per-class sums (≤ len/3 classes), the step index and slack for
		// the runtime's own bookkeeping.
		if limit := uint64(16*len(raw) + 4*maxTraceSteps + 1<<16); got > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeTraceBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatal("accepted trace does not survive a round trip")
		}
		checkLayout(t, tr)
	})
}
