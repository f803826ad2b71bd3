package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The reference text decoder: the split-then-parse functions decodeN used
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

// resultFirstBlocks is n blocks of the rare shape the decoder compacts:
// result lines first (eight of them: a map of that many is too big for the
// stack), an input after them, one more result, which wins, and an input.
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
