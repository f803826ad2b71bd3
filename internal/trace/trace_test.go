package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpcodeNames(t *testing.T) {
	cases := map[int]string{
		OpLoad: "Load", OpStore: "Store", OpAlloca: "Alloca",
		OpCall: "Call", OpMul: "Mul", OpFDiv: "FDiv",
		OpGetElementPtr: "GetElementPtr", OpBitCast: "BitCast",
		OpICmp: "ICmp", OpBr: "Br", OpRet: "Ret", OpPHI: "PHI",
		999: "Op999",
	}
	for op, want := range cases {
		if got := OpcodeName(op); got != want {
			t.Errorf("OpcodeName(%d) = %q, want %q", op, got, want)
		}
	}
}

func TestPaperOpcodeNumbers(t *testing.T) {
	// The paper's figures pin these: Load=27 (Fig. 1), Alloca=26 (Fig. 6c),
	// Call=49 (Fig. 6a/b).
	if OpLoad != 27 {
		t.Errorf("OpLoad = %d, want 27", OpLoad)
	}
	if OpAlloca != 26 {
		t.Errorf("OpAlloca = %d, want 26", OpAlloca)
	}
	if OpCall != 49 {
		t.Errorf("OpCall = %d, want 49", OpCall)
	}
}

func TestValueStringParse(t *testing.T) {
	cases := []Value{
		IntValue(0), IntValue(42), IntValue(-7), IntValue(math.MaxInt64), IntValue(math.MinInt64),
		FloatValue(0), FloatValue(1.5), FloatValue(-2.25), FloatValue(1e300), FloatValue(3),
		PtrValue(0), PtrValue(0x7ffcf3f25a70), PtrValue(math.MaxUint64),
	}
	for _, v := range cases {
		s := v.String()
		got, err := parseValueBytes([]byte(s))
		if err != nil {
			t.Fatalf("parseValueBytes(%q): %v", s, err)
		}
		if !got.Equal(v) {
			t.Errorf("roundtrip %v -> %q -> %v", v, s, got)
		}
	}
}

func TestValueKindsDistinguishable(t *testing.T) {
	// An integral float must still parse back as a float.
	v := FloatValue(3)
	s := v.String()
	if !strings.ContainsAny(s, ".eE") {
		t.Fatalf("FloatValue(3).String() = %q lacks float marker", s)
	}
	got, err := parseValueBytes([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindFloat {
		t.Errorf("parsed kind = %v, want KindFloat", got.Kind)
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, s := range []string{"0xzz", "1.2.3", "abc", ""} {
		if _, err := parseValueBytes([]byte(s)); err == nil {
			t.Errorf("parseValueBytes(%q) succeeded, want error", s)
		}
	}
}

func sampleRecords() []Record {
	return []Record{
		{
			Line: 6, Func: "foo", Block: "for.body", Opcode: OpLoad, DynID: 215,
			Ops:    []Operand{{Index: 1, Size: 64, Value: PtrValue(0x7ffcf3f25a70), IsReg: true, Name: "p"}},
			Result: &Operand{Index: 0, Size: 64, Value: IntValue(8), IsReg: true, Name: "8"},
		},
		{
			Line: 6, Func: "foo", Block: "for.body", Opcode: OpMul, DynID: 216,
			Ops: []Operand{
				{Index: 1, Size: 64, Value: IntValue(4), IsReg: true, Name: "8"},
				{Index: 2, Size: 64, Value: IntValue(2), IsReg: false, Name: ""},
			},
			Result: &Operand{Index: 0, Size: 64, Value: IntValue(8), IsReg: true, Name: "9"},
		},
		{
			Line: -1, Func: "main", Block: "entry", Opcode: OpAlloca, DynID: 51,
			Result: &Operand{Index: 0, Size: 64, Value: PtrValue(0x7ffe11de09bc), IsReg: true, Name: "sum"},
		},
		{
			Line: 24, Func: "main", Block: "body", Opcode: OpCall, DynID: 7773,
			Ops: []Operand{
				{Index: 1, Size: 64, Value: FloatValue(44), IsReg: true, Name: "36"},
				{Index: 2, Size: 64, Value: FloatValue(2), IsReg: true, Name: "37"},
			},
			Result: &Operand{Index: 0, Size: 64, Value: FloatValue(1936), IsReg: true, Name: "38"},
		},
		{Line: 10, Func: "main", Block: "latch", Opcode: OpBr, DynID: 7774},
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeAll(recs)
	got, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Errorf("roundtrip mismatch:\nwant %+v\ngot  %+v", recs, got)
	}
}

func TestScannerStreaming(t *testing.T) {
	recs := sampleRecords()
	sc := newStreamReader(bytes.NewReader(EncodeAll(recs)), FormatText)
	got, err := drain(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].DynID != recs[i].DynID {
			t.Errorf("record %d: DynID = %d, want %d", i, got[i].DynID, recs[i].DynID)
		}
	}
	// A read after EOF, and another, hand on nothing.
	for range 2 {
		if rest, err := drain(sc); err != nil || len(rest) != 0 {
			t.Errorf("after EOF: (%d records, %v), want (0, nil)", len(rest), err)
		}
	}
}

func TestScannerBadInput(t *testing.T) {
	cases := []string{
		"1,1,64,5,1,x\n",                // operand before header
		"0,notanint,f,b,27,1\n",         // bad line number
		"0,1,f,b,27,1\n1,1,64,zz,1,x\n", // bad value
		"0,1,f,b,27,1\n1,1,64,5,1\n",    // short operand line
	}
	for _, in := range cases {
		if _, err := ParseBytes([]byte(in)); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", in)
		}
	}
}

func TestRecordOperandLookup(t *testing.T) {
	r := sampleRecords()[1]
	if op := r.Operand(2); op == nil || !op.Value.Equal(IntValue(2)) {
		t.Errorf("Operand(2) = %+v", op)
	}
	if op := r.Operand(5); op != nil {
		t.Errorf("Operand(5) = %+v, want nil", op)
	}
}

func TestEmptyTrace(t *testing.T) {
	recs, err := ParseBytes(nil)
	if err != nil || len(recs) != 0 {
		t.Errorf("ParseBytes(nil) = (%v, %v)", recs, err)
	}
}

// randomRecords builds a pseudo-random but well-formed trace.
func randomRecords(rng *rand.Rand, n int) []Record {
	funcs := []string{"main", "foo", "conj_grad", "hypre_LowerBound"}
	blocks := []string{"entry", "for.body", "for.cond", "latch"}
	recs := make([]Record, n)
	for i := range recs {
		op := []int{OpLoad, OpStore, OpAdd, OpMul, OpFMul, OpCall, OpAlloca, OpBr, OpGetElementPtr}[rng.Intn(9)]
		rec := Record{
			Line:   rng.Intn(200) - 1,
			Func:   funcs[rng.Intn(len(funcs))],
			Block:  blocks[rng.Intn(len(blocks))],
			Opcode: op,
			DynID:  int64(i),
		}
		nops := rng.Intn(3)
		for j := 0; j < nops; j++ {
			rec.Ops = append(rec.Ops, randomOperand(rng, j+1))
		}
		if rng.Intn(2) == 0 {
			res := randomOperand(rng, 0)
			rec.Result = &res
		}
		recs[i] = rec
	}
	return recs
}

func randomOperand(rng *rand.Rand, idx int) Operand {
	var v Value
	switch rng.Intn(3) {
	case 0:
		v = IntValue(rng.Int63() - rng.Int63())
	case 1:
		v = FloatValue(rng.NormFloat64() * 1e6)
	default:
		v = PtrValue(rng.Uint64())
	}
	names := []string{"p", "q", "sum", "8", "9", "36", ""}
	return Operand{Index: idx, Size: 64, Value: v, IsReg: rng.Intn(2) == 0, Name: names[rng.Intn(len(names))]}
}

// Property: encode->parse is the identity on arbitrary well-formed traces.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, int(size))
		got, err := ParseBytes(EncodeAll(recs))
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(recs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScannerLongLines(t *testing.T) {
	// A record larger than the stream window but under the record cap must
	// be read whole: the window grows for it.
	name := strings.Repeat("f", 1<<19)
	if len(name) <= windowBytes || len(name) >= maxRecordBytes {
		t.Fatal("fixture must sit between the window size and the record cap")
	}
	recs := []Record{{Line: 1, Func: name, Block: "b", Opcode: OpBr, DynID: 1}, {Line: 2, Func: name, Block: "b", Opcode: OpBr, DynID: 2}}
	for _, f := range []Format{FormatText, FormatBinary} {
		data := Encode(recs, f)
		got, err := ParseBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		rd, _, err := NewAutoReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := drain(rd)
		if err != nil {
			t.Fatal(err)
		}
		for via, got := range map[string][]Record{"ParseBytes": got, "stream": streamed} {
			if !reflect.DeepEqual(got, recs) {
				t.Errorf("%v %s: long function name mangled", f, via)
			}
		}
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
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
	if buf.Len() == 0 {
		t.Error("writer produced no bytes")
	}
}

func TestRecordStringIsBlockEncoding(t *testing.T) {
	rec := sampleRecords()[0]
	s := rec.String()
	if !strings.HasPrefix(s, "0,6,foo,for.body,27,215\n") {
		t.Errorf("String() = %q", s)
	}
	back, err := ParseBytes([]byte(s))
	if err != nil || len(back) != 1 {
		t.Fatalf("block encoding did not reparse: %v", err)
	}
}

// A stream has a per-record cap; overflowing it must produce an error
// with the byte offset and a hint, not a bare bufio.ErrTooLong.
func TestScannerTooLongContext(t *testing.T) {
	name := strings.Repeat("f", maxRecordBytes+16)
	rec := Record{Line: 1, Func: name, Block: "b", Opcode: OpBr, DynID: 1}
	data := EncodeAll([]Record{rec})
	_, err := drain(newStreamReader(bytes.NewReader(data), FormatText))
	if err == nil {
		t.Fatal("Scanner accepted a line beyond the cap")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error does not wrap bufio.ErrTooLong: %v", err)
	}
	for _, want := range []string{"byte offset", "ParseBytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	// The manual in-memory parser has no cap at all.
	got, perr := ParseBytes(data)
	if perr != nil || len(got) != 1 || got[0].Func != name {
		t.Errorf("ParseBytes rejected the long line: %v", perr)
	}
}

// The byte offset in the wrapped error must point at the offending record,
// not at zero.
func TestScannerTooLongOffset(t *testing.T) {
	good := EncodeAll(sampleRecords())
	bad := append(append([]byte{}, good...), []byte("0,1,")...)
	bad = append(bad, bytes.Repeat([]byte("x"), maxRecordBytes)...)
	_, err := drain(newStreamReader(bytes.NewReader(bad), FormatText))
	if err == nil || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("want wrapped ErrTooLong, got %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d", len(good))) {
		t.Errorf("error %q does not name offset %d", err, len(good))
	}
}

// The in-memory parse must stay allocation-free per record, in either
// format: the seed text parser cost ~7 allocations per line; the decoders
// amortize to well under one per record. And it must size its storage up
// front — exactly from CountRecords for text, from a sample for ACTB — so
// the bytes it allocates stay within 1.5x of what the records and their
// operands finally take; growing by appends costs about 3x.
func TestParseBytesAllocs(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(5)), 5000)
	final := uintptr(len(recs)) * unsafe.Sizeof(Record{})
	for i := range recs {
		final += uintptr(recs[i].NumOperands()) * unsafe.Sizeof(Operand{})
	}
	for _, f := range []Format{FormatText, FormatBinary} {
		data := Encode(recs, f)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ParseBytes(data); err != nil {
				t.Fatal(err)
			}
		})
		if perRecord := allocs / float64(len(recs)); perRecord > 0.05 {
			t.Errorf("%v: ParseBytes allocates %.3f times per record (%.0f total for %d records), want amortized ~0",
				f, perRecord, allocs, len(recs))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ParseBytes(data); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.5*float64(final) {
			t.Errorf("%v: ParseBytes allocates %d bytes for records and operands of %d bytes, want at most 1.5x",
				f, got, final)
		}
	}
}

func TestCountRecords(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(6)), 321)
	data := EncodeAll(recs)
	if n := CountRecords(data); n != len(recs) {
		t.Errorf("CountRecords = %d, want %d", n, len(recs))
	}
	if n := CountRecords(nil); n != 0 {
		t.Errorf("CountRecords(nil) = %d", n)
	}
	// The count reads eight bytes at a time. Every cut of a trace — and of
	// one whose "\n\v0," lines sit where the word trick flags the byte
	// after a line break — puts marks at every lane and across the word
	// tail; the answer is one header per line starting "0,".
	tricky := append([]byte("0,1,f,b,2,1\n\v0,2,f,b,2,2\n\n\v0,\n\n0,3,f,b,2,3\n0,\n0"), data[:200]...)
	for from := 0; from < 40; from++ {
		for to := from; to <= len(tricky); to++ {
			want := 0
			for _, line := range bytes.Split(tricky[from:to], []byte("\n")) {
				if bytes.HasPrefix(line, []byte("0,")) {
					want++
				}
			}
			if n := CountRecords(tricky[from:to]); n != want {
				t.Fatalf("CountRecords(%q) = %d, want %d", tricky[from:to], n, want)
			}
		}
	}
}

// Ops slices of parsed records are capacity-clamped: appending to one
// record's operands must not clobber its neighbor (they share an arena).
func TestParsedOpsAppendSafe(t *testing.T) {
	data := EncodeAll(sampleRecords())
	recs, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	want := recs[1].Ops[0]
	recs[0].Ops = append(recs[0].Ops, Operand{Index: 99, Name: "evil"})
	if !reflect.DeepEqual(recs[1].Ops[0], want) {
		t.Error("append to one record's Ops clobbered the next record")
	}
}

func TestParseCRLF(t *testing.T) {
	data := bytes.ReplaceAll(EncodeAll(sampleRecords()), []byte("\n"), []byte("\r\n"))
	recs, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, sampleRecords()) {
		t.Error("CRLF trace parsed differently")
	}
}

// TestTextRejectsCarriageReturnInName: the two formats share one name
// alphabet. Only a line's terminating '\r' is stripped; one inside a
// function, block or operand name is refused (as ACTB refuses it, see
// TestBinaryRejectsTextUnsafeNames) instead of decoding to a record that
// has no ACTB encoding — also when the name was seen clean before.
func TestTextRejectsCarriageReturnInName(t *testing.T) {
	for _, data := range []string{
		"0,1,f,b,27,1\nr,0,64,5,1,n\rm\n",
		"0,1,f,b,27,1\n1,1,64,5,1,nm\n1,1,64,5,1,n\rm\n",
		"0,2,ma\rin,b,2,2\n",
		"0,2,main,b\r.1,2,2\r\n",
	} {
		recs, err := ParseBytes([]byte(data))
		if err == nil || !strings.Contains(err.Error(), "carriage return") {
			t.Errorf("ParseBytes(%q) = (%v, %v), want a name error", data, recs, err)
		}
	}
}

// ParseBytes must accept exactly what the streaming Scanner accepts:
// operand lines after a result line, and repeated result lines (the last
// wins), as LLVM-Tracer-style producers are free to order block lines.
func TestResultMidBlockParity(t *testing.T) {
	cases := []string{
		"0,1,main,e,27,1\nr,0,64,1,1,2\n1,1,64,0x10,0,g\n",               // operand after result
		"0,1,main,e,27,1\nr,0,64,1,1,2\nr,0,64,5,1,3\n",                  // repeated result
		"0,1,main,e,27,1\n1,1,64,7,0,a\nr,0,64,1,1,2\n1,2,64,8,0,b\n",    // result mid-block
		"0,1,main,e,27,1\nr,0,64,1,1,2\n0,2,main,e,28,2\n1,1,64,9,0,c\n", // next block after result
	}
	for _, in := range cases {
		want, err := scanAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("scanAll(%q): %v", in, err)
		}
		got, err := ParseBytes([]byte(in))
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", in, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("parsers disagree on %q:\nscanner %+v\nbytes   %+v", in, want, got)
		}
	}
}

// scanAll decodes a text trace stream to its end or first error.
func scanAll(r io.Reader) ([]Record, error) {
	return drain(newStreamReader(r, FormatText))
}

func TestScannerCRLF(t *testing.T) {
	data := bytes.ReplaceAll(EncodeAll(sampleRecords()), []byte("\n"), []byte("\r\n"))
	got, err := scanAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRecords()) {
		t.Error("CRLF trace read differently by Scanner")
	}
}
