package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestBinaryRoundtrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeBinary(recs)
	got, err := ParseBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Errorf("roundtrip mismatch:\nwant %+v\ngot  %+v", recs, got)
	}
}

func TestBinaryScannerStreaming(t *testing.T) {
	recs := sampleRecords()
	sc := newStreamReader(bytes.NewReader(EncodeBinary(recs)), FormatBinary)
	got, err := drain(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("stream mismatch:\nwant %+v\ngot  %+v", recs, got)
	}
	for range 2 {
		if rest, err := drain(sc); err != nil || len(rest) != 0 {
			t.Errorf("after EOF: (%d records, %v), want (0, nil)", len(rest), err)
		}
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 2000)
	text := EncodeAll(recs)
	bin := EncodeBinary(recs)
	if ratio := float64(len(bin)) / float64(len(text)); ratio > 0.7 {
		t.Errorf("binary/text size ratio = %.2f (binary %d B, text %d B), want <= 0.7",
			ratio, len(bin), len(text))
	}
}

// Property: text -> records -> binary -> records -> text is the identity.
func TestQuickTextBinaryText(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, int(size))
		text := EncodeAll(recs)
		viaText, err := ParseBytes(text)
		if err != nil {
			return false
		}
		viaBinary, err := ParseBinary(EncodeBinary(viaText))
		if err != nil {
			return false
		}
		return bytes.Equal(EncodeAll(viaBinary), text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: binary -> records -> binary is the identity (the string table
// is assigned in first-use order, so re-encoding reproduces the bytes).
func TestQuickBinaryRecordsBinary(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bin := EncodeBinary(randomRecords(rng, int(size)))
		recs, err := ParseBinary(bin)
		if err != nil {
			return false
		}
		return bytes.Equal(EncodeBinary(recs), bin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the streaming binary reader and the in-memory ParseBinary
// agree.
func TestQuickBinaryScannerEqualsParse(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bin := EncodeBinary(randomRecords(rng, int(size)))
		fast, err := ParseBinary(bin)
		if err != nil {
			return false
		}
		slow, err := drain(newStreamReader(bytes.NewReader(bin), FormatBinary))
		if err != nil {
			return false
		}
		if len(fast) == 0 && len(slow) == 0 {
			return true
		}
		return reflect.DeepEqual(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	recs := sampleRecords()
	data := EncodeBinary(recs)
	// Encoding a prefix of the records yields a prefix of the bytes: a cut
	// at one of these lengths is a shorter valid trace, any other is
	// mid-header or mid-record.
	whole := map[int]int{}
	for k := range recs {
		whole[len(EncodeBinary(recs[:k]))] = k
	}
	// Every proper prefix must error or yield fewer records — never panic —
	// and the stream reader, refilled a byte at a time, must reach
	// ParseBinary's verdict.
	for cut := 1; cut < len(data); cut++ {
		got, err := ParseBinary(data[:cut])
		if err == nil && len(got) >= len(recs) {
			t.Fatalf("truncated at %d/%d bytes: parsed %d records without error",
				cut, len(data), len(got))
		}
		sgot, serr := drain(newStreamReader(iotest.OneByteReader(bytes.NewReader(data[:cut])), FormatBinary))
		if (err == nil) != (serr == nil) || (err == nil && len(sgot) != len(got)) {
			t.Fatalf("cut at %d: ParseBinary = (%d records, %v), stream = (%d records, %v)",
				cut, len(got), err, len(sgot), serr)
		}
		k, ok := whole[cut]
		if ok != (err == nil) || (ok && len(got) != k) {
			t.Fatalf("cut at %d: ParseBinary = (%d records, %v), want %d records, error %v", cut, len(got), err, k, !ok)
		}
		for name, e := range map[string]error{"ParseBinary": err, "stream": serr} {
			if ok {
				continue
			}
			var off int
			if !errors.Is(e, io.ErrUnexpectedEOF) {
				t.Errorf("cut at %d: %s error does not wrap io.ErrUnexpectedEOF: %v", cut, name, e)
			} else if _, perr := fmt.Sscanf(e.Error(), "trace: binary trace truncated at byte offset %d", &off); perr != nil || off < 0 || off > cut {
				t.Errorf("cut at %d: %s error names no offset inside the prefix: %v", cut, name, e)
			}
		}
	}
}

func TestBinaryCorruptHeader(t *testing.T) {
	valid := EncodeBinary(sampleRecords())
	cases := map[string][]byte{
		"bad magic":        []byte("ACTX\x01rest"),
		"bad version":      append(append([]byte{}, binaryMagic...), 99),
		"header only cut":  valid[:4],
		"no version":       binaryMagic,
		"huge table count": append(append(append([]byte{}, binaryMagic...), binaryVersion), 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := ParseBinary(data); err == nil {
			t.Errorf("%s: ParseBinary succeeded, want error", name)
		}
		if _, err := drain(newStreamReader(bytes.NewReader(data), FormatBinary)); err == nil {
			t.Errorf("%s: binary stream read succeeded, want error", name)
		}
	}
	// An empty stream is an empty trace, not an error.
	if recs, err := ParseBinary(nil); err != nil || len(recs) != 0 {
		t.Errorf("ParseBinary(nil) = (%v, %v), want empty", recs, err)
	}
	if recs, err := drain(newStreamReader(bytes.NewReader(nil), FormatBinary)); err != nil || len(recs) != 0 {
		t.Errorf("binary stream over empty input = (%d records, %v), want (0, nil)", len(recs), err)
	}
}

// A name holding one of the text format's separators has no text
// encoding; the ACTB decoder rejects it rather than hand out a record that
// autocheck convert would turn into a different trace.
func TestBinaryRejectsTextUnsafeNames(t *testing.T) {
	for _, name := range []string{"a,b", "a\nb", "a\r"} {
		data := EncodeBinary([]Record{{Line: 6, Func: "f", Block: name, Opcode: OpBr, DynID: 1}})
		if recs, err := ParseBinary(data); err == nil || !strings.Contains(err.Error(), "block label") {
			t.Errorf("name %q: ParseBinary = (%v, %v), want a block label error", name, recs, err)
		}
	}
}

func TestBinaryCorruptBody(t *testing.T) {
	data := EncodeBinary(sampleRecords())
	// Flip every byte after the header region; the decoder must never
	// panic, and the common corruptions must be detected.
	for i := 5; i < len(data); i++ {
		mut := append([]byte{}, data...)
		mut[i] ^= 0xff
		_, _ = ParseBinary(mut) // must not panic
	}
}

func TestDetectFormat(t *testing.T) {
	recs := sampleRecords()
	if f := DetectFormat(EncodeAll(recs)); f != FormatText {
		t.Errorf("text detected as %v", f)
	}
	if f := DetectFormat(EncodeBinary(recs)); f != FormatBinary {
		t.Errorf("binary detected as %v", f)
	}
	if f := DetectFormat(nil); f != FormatText {
		t.Errorf("empty detected as %v", f)
	}
	// ParseBytes dispatches on the magic.
	got, err := ParseBytes(EncodeBinary(recs))
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Errorf("ParseBytes on binary data: %v", err)
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"text": FormatText, "binary": FormatBinary, "bin": FormatBinary, "txt": FormatText} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	if _, err := ParseFormat("protobuf"); err == nil {
		t.Error("ParseFormat(protobuf) succeeded")
	}
}

func TestNewAutoReader(t *testing.T) {
	recs := sampleRecords()
	for _, format := range []Format{FormatText, FormatBinary} {
		rd, got, err := NewAutoReader(bytes.NewReader(Encode(recs, format)))
		if err != nil || got != format {
			t.Fatalf("NewAutoReader(%v) = format %v, err %v", format, got, err)
		}
		n := 0
		if err := rd.ReadInto(func([]Record, []uint32) { n++ }); err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Errorf("%v: read %d records, want %d", format, n, len(recs))
		}
	}
}

func TestBinaryWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	recs := sampleRecords()
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(recs))
	}
}

func TestBinaryEmptyWriterProducesHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseBinary(buf.Bytes())
	if err != nil || len(recs) != 0 {
		t.Errorf("empty binary trace: (%v, %v)", recs, err)
	}
}

func TestBinaryExtremeValues(t *testing.T) {
	recs := []Record{{
		Line: -1, Func: "f", Block: "b", Opcode: OpStore, DynID: math.MaxInt64,
		Ops: []Operand{
			{Index: -3, Size: 64, Value: IntValue(math.MinInt64), IsReg: true, Name: "x"},
			{Index: 1, Size: 64, Value: FloatValue(math.Inf(-1)), Name: ""},
			{Index: 2, Size: 64, Value: FloatValue(math.Copysign(0, -1)), Name: strings.Repeat("n", 300)},
			{Index: 3, Size: 64, Value: PtrValue(math.MaxUint64), Name: "x"},
		},
	}}
	got, err := ParseBinary(EncodeBinary(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Errorf("extreme values mangled:\nwant %+v\ngot  %+v", recs, got)
	}
	// NaN needs a bit-level check (NaN != NaN defeats DeepEqual).
	nan := []Record{{Func: "f", Block: "b", Opcode: OpFAdd, DynID: 1,
		Result: &Operand{Size: 64, Value: FloatValue(math.NaN()), IsReg: true, Name: "r"}}}
	back, err := ParseBinary(EncodeBinary(nan))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Result == nil || !math.IsNaN(back[0].Result.Value.Float()) {
		t.Errorf("NaN not preserved: %+v", back)
	}
}

// varintRecords carries a varint of every length, 1 to 10 bytes, in every
// varint field: line, dynamic id, operand index and size, int and pointer
// values.
func varintRecords() []Record {
	var recs []Record
	for s := 0; s < 64; s++ {
		for _, v := range []uint64{1<<s - 1, 1 << s, 1<<s + 1} {
			ops := []Operand{
				{Index: int(v), Size: int(v), Value: PtrValue(v), Name: "p"},
				{Index: -int(v), Size: int(v >> 1), Value: IntValue(int64(v)), IsReg: true, Name: "i"},
				{Index: 1, Size: 64, Value: IntValue(-int64(v)), Name: "n"},
			}
			res := Operand{Size: 64, Value: FloatValue(float64(v)), IsReg: true, Name: "r"}
			recs = append(recs, Record{Line: int(v >> 1), Func: "f", Block: "b", Opcode: OpAdd, DynID: int64(v), Ops: ops, Result: &res})
		}
	}
	return recs
}

// TestBinaryDecodeMatchesReference is the differential test of the cursor
// decode against the field-at-a-time reference of the trace's version
// (sameACTBDecode), without the fuzzer: it must yield the reference's
// records or its exact error string — on well-formed traces of both
// versions, on every prefix of one of each (each a truncation somewhere),
// and on single-byte corruptions of every byte of them (each a fault in
// whatever field the byte belongs to).
func TestBinaryDecodeMatchesReference(t *testing.T) {
	check := func(label string, data []byte) {
		t.Helper()
		got, err := ParseBinary(data)
		if err := sameACTBDecode(data, got, err); err != nil {
			t.Fatalf("%s: full decode: %v", label, err)
		}
	}
	for version, encode := range map[int]func([]Record) []byte{1: encodeBinaryV1, 2: EncodeBinary} {
		check(fmt.Sprintf("v%d sampleRecords", version), encode(sampleRecords()))
		check(fmt.Sprintf("v%d varintRecords", version), encode(varintRecords()))
		for seed := int64(0); seed < 8; seed++ {
			check(fmt.Sprintf("v%d randomRecords/%d", version, seed), encode(randomRecords(rand.New(rand.NewSource(seed)), 300)))
		}
	}
	// One trace with new strings among the operands, so prefixes and
	// corruptions reach string introductions in every field.
	recs := randomRecords(rand.New(rand.NewSource(32)), 24)
	for i := range recs {
		if i%3 == 0 {
			recs[i].Func = fmt.Sprintf("fn%d", i)
		}
		if len(recs[i].Ops) > 0 {
			recs[i].Ops[0].Name = fmt.Sprintf("v%d", i)
		}
	}
	recs = append(recs, varintRecords()[60:70]...)
	// Version 2 with templates used again, pointer deltas and a one-off
	// record, so prefixes and corruptions reach references, definitions,
	// deltas and one-off definitions too.
	for version, data := range map[int][]byte{1: encodeBinaryV1(recs), 2: EncodeBinary(append(append(recs, repeatedRecords(3)...), wideRecords()[2]))} {
		for cut := 0; cut < len(data); cut++ {
			check(fmt.Sprintf("v%d prefix %d", version, cut), data[:cut])
		}
		// XOR 0x80 flips a varint between ending and continuing; the others
		// make a bad kind, a bad flags byte, a separator, a huge ref or length.
		for i := range data {
			for _, b := range []byte{data[i] ^ 0x80, data[i] ^ 0x01, data[i] ^ 0xff, 0x03, ',', '\n', 0x7f} {
				bad := append([]byte(nil), data...)
				bad[i] = b
				check(fmt.Sprintf("v%d byte %d = %#x", version, i, b), bad)
			}
		}
	}
}
