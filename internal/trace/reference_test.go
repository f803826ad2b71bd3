package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The reference text decoder: the split-then-parse functions decode used
// before it decoded lines in place, kept as the oracle FuzzParseTrace and
// TestDecodeMatchesReference hold the production decoder to — the same
// records, or the same error string. It is written for obviousness, not
// speed: a line is split into fields, each field becomes a string, numbers
// go through strconv, and every record owns its operands.

// splitFields6 splits a trace line into exactly 6 comma-separated fields.
func splitFields6(line []byte) (f [6][]byte, ok bool) {
	n := 0
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == ',' {
			if n == 5 {
				return f, false // 7+ fields
			}
			f[n] = line[start:i]
			n++
			start = i + 1
		}
	}
	if n != 5 {
		return f, false
	}
	f[5] = line[start:]
	return f, true
}

func refInt(b []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	return v, err == nil
}

func refValue(b []byte) (Value, error) {
	s := string(b)
	if neg := strings.HasPrefix(s, "-0x"); neg || strings.HasPrefix(s, "0x") {
		a, err := strconv.ParseUint(strings.TrimPrefix(s, "-")[2:], 16, 64)
		if err != nil {
			return Value{}, fmt.Errorf("trace: bad pointer value %q", b)
		}
		if neg {
			a = -a
		}
		return PtrValue(a), nil
	}
	if strings.ContainsAny(s, ".eEIN") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("trace: bad float value %q: %w", b, err)
		}
		return FloatValue(f), nil
	}
	i, ok := refInt(b)
	if !ok {
		return Value{}, fmt.Errorf("trace: bad int value %q", b)
	}
	return IntValue(i), nil
}

func parseOperand(line []byte) (Operand, error) {
	f, ok := splitFields6(line)
	if !ok {
		return Operand{}, fmt.Errorf("trace: operand line does not have 6 fields: %q", line)
	}
	idx, ok := refInt(f[1])
	if !ok {
		return Operand{}, fmt.Errorf("trace: bad operand index in %q", line)
	}
	size, ok := refInt(f[2])
	if !ok {
		return Operand{}, fmt.Errorf("trace: bad operand size in %q", line)
	}
	val, err := refValue(f[3])
	if err != nil {
		return Operand{}, err
	}
	if bytes.IndexByte(f[5], '\r') >= 0 {
		return Operand{}, fmt.Errorf("trace: name holds a carriage return in %q", line)
	}
	return Operand{
		Index: int(idx),
		Size:  int(size),
		Value: val,
		IsReg: string(f[4]) == "1",
		Name:  string(f[5]),
	}, nil
}

func parseHeader(line []byte) (Record, error) {
	f, ok := splitFields6(line)
	if !ok {
		return Record{}, fmt.Errorf("trace: header line does not have 6 fields: %q", line)
	}
	ln, ok := refInt(f[1])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad line number in %q", line)
	}
	op, ok := refInt(f[4])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad opcode in %q", line)
	}
	dyn, ok := refInt(f[5])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad dynamic id in %q", line)
	}
	if bytes.IndexByte(f[2], '\r') >= 0 || bytes.IndexByte(f[3], '\r') >= 0 {
		return Record{}, fmt.Errorf("trace: name holds a carriage return in %q", line)
	}
	return Record{
		Line:   int(ln),
		Func:   string(f[2]),
		Block:  string(f[3]),
		Opcode: int(op),
		DynID:  dyn,
	}, nil
}

// referenceParse decodes a text trace line by line: blank lines are
// skipped, a line starting "0," opens a block, every other line is an
// operand of the open block — its result if it starts "r," (the last one
// wins), an input otherwise.
func referenceParse(data []byte) ([]Record, error) {
	var recs []Record
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, []byte("0,")):
			rec, err := parseHeader(line)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		case len(recs) == 0:
			return nil, fmt.Errorf("trace: expected block header, got %q", line)
		default:
			op, err := parseOperand(line)
			if err != nil {
				return nil, err
			}
			if r := &recs[len(recs)-1]; bytes.HasPrefix(line, []byte("r,")) {
				r.Result = &op
			} else {
				r.Ops = append(r.Ops, op)
			}
		}
	}
	return recs, nil
}

// sameDecode reports how a decode differs from the reference's decode of
// the same bytes: the records must be equal, or the error strings.
func sameDecode(data []byte, got []Record, gerr error) error {
	want, werr := referenceParse(data)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			return fmt.Errorf("error %v, reference decoder has %v", gerr, werr)
		}
		return nil
	}
	if !equalModuloNaN(want, got) {
		return fmt.Errorf("%d records differ from the reference decoder's %d", len(got), len(want))
	}
	return nil
}

// malformedLines are lines the decoder must reject (and a few odd ones it
// must accept) with the reference's verdict: every field that can be bad,
// the 6-field rule outranking a bad field to its left, sign and overflow
// at the int64 edges, and each value grammar.
var malformedLines = []string{
	"1", "1,", "1,1,64,5,1", "1,1,64,5,1,x,y", ",,,,,", "1,,64,5,1,x", "1,1,,5,1,x", "1,1,64,,1,x",
	"1,x,64,5,1,n", "1,1,6x,5,1,n", "1,1,64,zz,1,n", "1,x,64,zz,1", "1,1,64,zz,1,n,extra", "1,1x,64,5,1,n,extra",
	"1,+1,-64,+5,1,n", "1,-,64,5,1,n", "1,+,64,5,1,n", "1,1,64,-,1,n", "1,1,64,+,1,n",
	"1,9223372036854775807,64,-9223372036854775808,1,n", "1,9223372036854775808,64,5,1,n",
	"1,1,64,9223372036854775808,1,n", "1,1,64,-9223372036854775809,1,n", "1,1,64,18446744073709551616,1,n",
	"1,1,64,000000000000000000000000000007,1,n", "1,00000000000000000000000001,64,5,1,n",
	"1,1,64,0x,1,n", "1,1,64,0xg,1,n", "1,1,64,0xFFFFFFFFFFFFFFFF,1,n", "1,1,64,0x10000000000000000,1,n",
	"1,1,64,-0x10,1,n", "1,1,64,-0x,1,n", "1,1,64,+0x10,1,n", "1,1,64,0X10,1,n", "1,1,64,0x1_0,1,n",
	"1,1,64,1.5,1,n", "1,1,64,1e400,1,n", "1,1,64,1.5.5,1,n", "1,1,64,NaN,1,n", "1,1,64,-Inf,1,n", "1,1,64,e,1,n",
	"1,1,64,1_0,1,n", "1,1,64,5,11,n", "1,1,64,5,,n", "1,1,64,5,01,", "xyz,1,64,5,1,n",
	"0", "0,", "0,1", "0,1,f,b,27", "0,1,f,b,27,1,2", "0,x,f,b,27,1", "0,1,f,b,x,1", "0,1,f,b,27,x", "0,x,f,b,27",
	"0,1,,,27,1", "0,+1,f,b,-27,+1", "0,1,f,b,27,", "0,1,f,b,,1", "0,,f,b,27,1", "0,1,f,b,27,1\r", "0,1,f,b,27,1\r\r",
	"0,99999999999999999999,f,b,27,1", "0,1,f,b,27,9223372036854775808",
	// One name alphabet for both formats: a '\r' that is not the line's
	// terminator is refused, as ACTB refuses it.
	"r,0,64,5,1,n\rm", "1,1,64,5,1,\rn", "1,1,64,5,1,\r\r", "1,x,64,5,1,n\rm", "1,1,64,5,1,n\rm,extra",
	"0,2,ma\rin,b,2,2", "0,2,main,b\rb,2,2", "0,2,\r,\r,2,2", "0,2,ma\rin,b,2,x",
}

// resultFirstBlocks is n blocks of the rare shape whose result the decoder
// holds aside until the block ends: result lines first (eight of them: a
// map of that many is too big for the stack), an input after them, one
// more result, which wins, and an input.
func resultFirstBlocks(n int) []byte {
	block := "0,17,main,b,11,1\n" + strings.Repeat("r,0,64,3,1,5\n", 8) + "1,1,64,1,1,3\nr,0,64,4,1,6\n2,2,64,2,0,\n"
	return bytes.Repeat([]byte(block), n)
}

// TestDecodeMatchesReference is the differential test of the in-place
// decode against the split-then-parse reference, without the fuzzer: the
// malformed lines as operand, header and first line of a trace, and a few
// thousand one-byte corruptions of a well-formed trace.
func TestDecodeMatchesReference(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		got, err := ParseBytes(data)
		if err := sameDecode(data, got, err); err != nil {
			t.Errorf("in-place decode of %q: %v", data, err)
		}
	}
	for _, line := range malformedLines {
		check([]byte(line))
		check([]byte("0,1,f,b,27,1\n" + line + "\n0,2,f,b,2,2\n"))
		check([]byte("0,1,f,b,27,1\r\n" + line + "\r\n"))
	}
	check(resultFirstBlocks(3))
	rng := rand.New(rand.NewSource(21))
	good := EncodeAll(randomRecords(rng, 12))
	check(good)
	const junk = ",,,\n\r0x-+.eEr19a"
	for i := 0; i < 4000; i++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] = junk[rng.Intn(len(junk))]
		check(bad)
	}
}

// The reference ACTB decoder: the field-at-a-time decoder binDecoder.record
// was before it became one walk with a local cursor, kept unchanged as the
// oracle FuzzParseTrace and TestBinaryDecodeMatchesReference hold the
// production decoder to — the same records, or the same error string,
// decoded in full and header-only. Every field returns (value, error) and
// moves d.pos itself, and a record rejected by filter walks its operands
// through operand, building each and storing none.
type refBinDecoder struct {
	data []byte
	pos  int
	base int64 // stream offset of data[0], for error messages
	strs []string
	ops  []Operand
}

func (d *refBinDecoder) corrupt(what string) error {
	return fmt.Errorf("trace: binary trace corrupt at byte offset %d (%s)", d.base+int64(d.pos), what)
}

// truncated reports a field that runs past the end of data. It is the one
// failure more bytes can cure: the stream reader refills and retries on
// it, and at the true end of a trace it is the truncation error.
func (d *refBinDecoder) truncated(what string) error {
	return fmt.Errorf("trace: binary trace truncated at byte offset %d (%s): %w", d.base+int64(d.pos), what, io.ErrUnexpectedEOF)
}

func (d *refBinDecoder) uvarint(what string) (uint64, error) {
	// Fast path: most fields (string refs, sizes, small ints) are one byte.
	if d.pos < len(d.data) {
		if b := d.data[d.pos]; b < 0x80 {
			d.pos++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n == 0 {
		return 0, d.truncated(what)
	}
	if n < 0 {
		return 0, d.corrupt(what + ": varint overflows 64 bits")
	}
	d.pos += n
	return v, nil
}

func (d *refBinDecoder) varint(what string) (int64, error) {
	v, err := d.uvarint(what)
	return int64(v>>1) ^ -int64(v&1), err
}

func (d *refBinDecoder) str(what string) (string, error) {
	ref, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if ref != 0 {
		if ref > uint64(len(d.strs)) {
			return "", d.corrupt(what + ": string ref beyond table")
		}
		return d.strs[ref-1], nil
	}
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxBinaryString {
		return "", d.corrupt(what + ": bad string length")
	}
	if uint64(len(d.data)-d.pos) < n {
		return "", d.truncated(what)
	}
	b := d.data[d.pos : d.pos+int(n)]
	if bytes.ContainsAny(b, ",\r\n") {
		// The text format has no way to write such a name (its decoder
		// refuses a '\r' inside one too): converted, the record would
		// parse as a different one or not at all.
		return "", d.corrupt(what + ": name contains a field or line separator")
	}
	s := string(b)
	d.pos += int(n)
	d.strs = append(d.strs, s)
	return s, nil
}

func (d *refBinDecoder) operand(o *Operand) error {
	if d.pos >= len(d.data) {
		return d.truncated("operand meta")
	}
	meta := d.data[d.pos]
	d.pos++
	kind := ValueKind(meta & 3)
	if kind > KindPtr {
		return d.corrupt("operand meta: bad value kind")
	}
	o.IsReg = meta&4 != 0
	idx, err := d.varint("operand index")
	if err != nil {
		return err
	}
	o.Index = int(idx)
	size, err := d.uvarint("operand size")
	if err != nil {
		return err
	}
	o.Size = int(size)
	var bits uint64
	switch kind {
	case KindFloat:
		if len(d.data)-d.pos < 8 {
			return d.truncated("float value")
		}
		bits = binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
	case KindPtr:
		bits, err = d.uvarint("pointer value")
	default:
		var v int64
		v, err = d.varint("int value")
		bits = uint64(v)
	}
	if err != nil {
		return err
	}
	o.Value = Value{Kind: kind, bits: bits}
	o.Name, err = d.str("operand name")
	return err
}

func (d *refBinDecoder) header() error {
	if len(d.data) < len(binaryMagic) && bytes.HasPrefix(binaryMagic, d.data) {
		return d.truncated("magic")
	}
	if !bytes.HasPrefix(d.data, binaryMagic) {
		return fmt.Errorf("trace: bad binary magic (want %q)", binaryMagic)
	}
	d.pos = len(binaryMagic)
	if d.pos >= len(d.data) {
		return d.truncated("version")
	}
	if v := d.data[d.pos]; v != binaryVersion {
		return fmt.Errorf("trace: unsupported binary trace version %d (want %d)", v, binaryVersion)
	}
	d.pos++
	n, err := d.uvarint("opcode table size")
	if err != nil {
		return err
	}
	if n > 4096 {
		return d.corrupt("opcode table size")
	}
	for i := uint64(0); i < n; i++ {
		if _, err := d.uvarint("opcode table entry"); err != nil {
			return err
		}
		ln, err := d.uvarint("opcode table entry")
		if err != nil {
			return err
		}
		if ln > maxBinaryString {
			return d.corrupt("opcode table entry")
		}
		if uint64(len(d.data)-d.pos) < ln {
			return d.truncated("opcode table entry")
		}
		d.pos += int(ln)
	}
	return nil
}

// record decodes one record at d.pos into rec, batching its operands in
// d.ops (callers must not hold d.ops aliases across arena growth — the
// record's own Ops/Result sub-slices are safe, matching the text
// decoder). A non-nil filter decodes rejected opcodes header-only: their
// operands are still walked — the stateful string table demands it — but
// not stored. The caller guarantees d.pos < len(d.data).
func (d *refBinDecoder) record(rec *Record, filter func(opcode int) bool) error {
	flags := d.data[d.pos]
	d.pos++
	if flags > 1 {
		return d.corrupt("record flags")
	}
	line, err := d.varint("line")
	if err != nil {
		return err
	}
	rec.Line = int(line)
	if rec.Func, err = d.str("function name"); err != nil {
		return err
	}
	if rec.Block, err = d.str("block label"); err != nil {
		return err
	}
	op, err := d.uvarint("opcode")
	if err != nil {
		return err
	}
	rec.Opcode = int(op)
	if rec.DynID, err = d.varint("dynamic id"); err != nil {
		return err
	}
	nops, err := d.uvarint("operand count")
	if err != nil {
		return err
	}
	if nops > maxBinaryOperands {
		return d.corrupt("operand count")
	}
	store := filter == nil || filter(rec.Opcode)
	opStart := len(d.ops)
	for i := uint64(0); i < nops; i++ {
		var o Operand
		if err := d.operand(&o); err != nil {
			return err
		}
		if store {
			d.ops = append(d.ops, o)
		}
	}
	if store && nops > 0 {
		rec.Ops = d.ops[opStart:len(d.ops):len(d.ops)]
	}
	if flags&1 != 0 {
		var o Operand
		if err := d.operand(&o); err != nil {
			return err
		}
		if store {
			d.ops = append(d.ops, o)
			rec.Result = &d.ops[len(d.ops)-1]
		}
	}
	return nil
}

// referenceParseBinary decodes a complete in-memory ACTB trace with the
// reference decoder.
func referenceParseBinary(data []byte) ([]Record, error) {
	if len(data) == 0 {
		return nil, nil
	}
	d := &refBinDecoder{data: data, strs: []string{""}}
	if err := d.header(); err != nil {
		return nil, err
	}
	var recs []Record
	for d.pos < len(data) {
		var rec Record
		if err := d.record(&rec, nil); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// sameBinaryDecode reports how a decode of ACTB bytes differs from the
// reference's decode of them: the records must be equal, or the error
// strings.
func sameBinaryDecode(data []byte, got []Record, gerr error) error {
	want, werr := referenceParseBinary(data)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			return fmt.Errorf("error %v, reference decoder has %v", gerr, werr)
		}
		return nil
	}
	if !equalModuloNaN(want, got) {
		return fmt.Errorf("%d records differ from the reference decoder's %d", len(got), len(want))
	}
	return nil
}
