package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// This file is the allocation-free textual parse path. Instead of
// bufio.Scanner.Text() + strings.Split + strconv.Atoi — one line string,
// one field slice, and six field strings per trace line — the decoder
// walks the input byte slice directly, parses integers and pointers
// without materializing strings, interns the few distinct identifier
// strings (function names, block labels, operand names), and hands each
// block on as it decodes it, from its template or from the
// decoder's loose record, so a record block costs amortized zero heap
// allocations. There is no line-length cap on this path.

// interner deduplicates identifier strings. A trace repeats the same
// handful of function/block/operand names millions of times; interning
// makes every repeat cost one map probe and zero allocations (the
// map[string]X lookup keyed by string(b) does not allocate on hit).
//
// In front of the map sits a small direct-mapped memo: consecutive records
// repeat the same Func, Block and operand names, so most lookups are
// answered by one string compare against the slot's last occupant instead
// of a full hash of the name.
type interner struct {
	tab  map[string]string
	memo [256]string
}

func newInterner() *interner {
	return &interner{tab: make(map[string]string, 64)}
}

// intern returns the one string for name b. ok is false for a name that
// holds a '\r': a line's terminating '\r' is stripped before its fields
// are read, so this one sits inside the name, and ACTB — whose names are
// this format's names — refuses it. The check runs where a name is first
// seen, not per record.
func (in *interner) intern(b []byte) (_ string, ok bool) {
	if len(b) == 0 {
		return "", true
	}
	// Length plus first, middle and last byte tell apart the names that
	// alternate in practice ("i" / "arrayidx" / "17", "for.body.3" /
	// "for.inc.4"); a collision only costs the map probe it would have
	// paid anyway.
	n := len(b)
	slot := &in.memo[((n*31+int(b[0]))*31+int(b[n-1])*17+int(b[n/2])*5)&(len(in.memo)-1)]
	if *slot == string(b) { // compiles to a compare, no allocation
		return *slot, true
	}
	s, seen := in.tab[string(b)]
	if !seen {
		if bytes.IndexByte(b, '\r') >= 0 {
			return "", false
		}
		s = string(b)
		in.tab[s] = s
	}
	*slot = s
	return s, true
}

// unsafeString views b as a string without copying. Callers must not
// retain the result past the lifetime of b's contents; it exists so that
// strconv.ParseFloat can run on a field slice without a per-call string
// allocation.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// scanInt parses the decimal int64 field that starts at b[p] in the pass
// that finds its end — the index of the next ',', or len(b) — by the rules
// of strconv.ParseInt(s, 10, 64).
func scanInt(b []byte, p int) (v int64, end int, ok bool) {
	v, end, ok = scanDigits(b, p)
	if !ok || end < len(b) && b[end] != ',' {
		return 0, 0, false
	}
	return v, end, true
}

// scanDigits is scanInt for a number that ends at whatever byte is not a
// digit: it returns the index of that byte.
func scanDigits(b []byte, p int) (v int64, end int, ok bool) {
	i := p
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	first := i
	var n uint64
	k := 8 // less than 8: the number ended within the word digitRun read
	if i+8 <= len(b) {
		n, k = digitRun(b, i)
		i += k
	}
	for ; k == 8 && i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		// 18 digits fit a uint64 whatever they are.
		if i-first >= 18 && n > (math.MaxUint64-uint64(c))/10 {
			return 0, 0, false
		}
		n = n*10 + uint64(c)
	}
	if i == first {
		return 0, 0, false
	}
	if neg {
		if n > 1<<63 {
			return 0, 0, false
		}
		return -int64(n), i, true
	}
	if n > math.MaxInt64 {
		return 0, 0, false
	}
	return int64(n), i, true
}

// digitRun reads the run of decimal digits that starts b[p:p+8] as one
// number: it returns the value of its first k digits, k ≤ 8, where k is 8
// or the index of the first byte of the eight that is not a digit. The
// caller has eight bytes at p. The eight are tested and converted
// together (Lemire, "Number Parsing at a Gigabyte per Second", SP&E 2021):
// a byte is a digit when its high nibble is 3 before and after adding 6;
// the digits, moved to the top of the word, become four two-digit values
// by one multiply and the whole number by two more.
func digitRun(b []byte, p int) (v uint64, k int) {
	const ones, nibbles, zeros = 0x0101010101010101, 0xF0F0F0F0F0F0F0F0, 0x3030303030303030
	w := binary.LittleEndian.Uint64(b[p:])
	// A carry out of a non-digit byte only reaches the bytes after it.
	notDigit := (w&nibbles ^ zeros) | ((w+6*ones)&nibbles ^ zeros)
	if k = bits.TrailingZeros64(notDigit) / 8; k == 0 {
		return 0, 0
	}
	w = (w - zeros) << (64 - 8*k) // the k digits, after 8-k zeros
	w = w*10 + w>>8
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return w, k
}

// scanHex is scanInt for a bare (no 0x prefix) hexadecimal uint64.
func scanHex(b []byte, p int) (v uint64, end int, ok bool) {
	i := p
	for ; i < len(b) && b[i] != ','; i++ {
		var d uint64
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, 0, false
		}
		if v > math.MaxUint64>>4 {
			return 0, 0, false
		}
		v = v<<4 | d
	}
	return v, i, i > p
}

// nextComma returns the index of the first ',' of b at or after p, or
// len(b). The fields it ends — a tag, a flag, a name — are a few bytes
// long, where a loop beats the call into bytes.IndexByte.
func nextComma(b []byte, p int) int {
	for p < len(b) && b[p] != ',' {
		p++
	}
	return p
}

func hasHexPrefix(b []byte) bool {
	return len(b) >= 2 && b[0] == '0' && b[1] == 'x'
}

// parseValueBytes decodes a value from its trace encoding without
// allocating. The three kinds are distinguished exactly as the format
// defines: 0x prefix = pointer, '.'/'e'/'E'/Inf/NaN = float, else int.
func parseValueBytes(b []byte) (Value, error) {
	if hasHexPrefix(b) || (len(b) >= 3 && b[0] == '-' && b[1] == '0' && b[2] == 'x') {
		h := b
		neg := false
		if h[0] == '-' {
			neg = true
			h = h[1:]
		}
		a, end, ok := scanHex(h, 2)
		if !ok || end != len(h) {
			return Value{}, fmt.Errorf("trace: bad pointer value %q", b)
		}
		if neg {
			a = -a
		}
		return PtrValue(a), nil
	}
	if hasFloatMarker(b) {
		f, err := strconv.ParseFloat(unsafeString(b), 64)
		if err != nil {
			return Value{}, fmt.Errorf("trace: bad float value %q: %w", b, err)
		}
		return FloatValue(f), nil
	}
	i, end, ok := scanInt(b, 0)
	if !ok || end != len(b) {
		return Value{}, fmt.Errorf("trace: bad int value %q", b)
	}
	return IntValue(i), nil
}

// decoder holds the reusable state of one textual decode: the name
// interner, the templates (see texttemplate.go) and a block parsed field
// by field.
type decoder struct {
	in    *interner
	tt    textTemplates
	loose loose
}

func newDecoder() *decoder {
	return &decoder{in: newInterner()}
}

// lineErr is the error of a line that does not decode. The 6-field rule is
// judged first, whichever field the decoder gave up in; bad, the complaint
// about the leftmost bad field, stands only on a line of 6.
func lineErr(line []byte, kind string, bad error) error {
	if bad == nil || bytes.Count(line, []byte(",")) != 5 {
		return fmt.Errorf("trace: %s line does not have 6 fields: %q", kind, line)
	}
	return bad
}

func badField(what string, line []byte) error {
	return fmt.Errorf("trace: bad %s in %q", what, line)
}

func badName(line []byte) error {
	return fmt.Errorf("trace: name holds a carriage return in %q", line)
}

// scanValue decodes the value field at line[p:] into *v and returns where
// the field ends. A pointer, a plain decimal or a float scanFloat reads —
// nearly every value of a trace — is decoded as its end is found; a
// negated pointer or anything else is delimited first and left to
// parseValueBytes.
func scanValue(line []byte, p int, v *Value) (int, error) {
	if end, ok := scanNumber(line, p, KindInt, v); ok {
		return end, nil
	}
	end := nextComma(line, p)
	var err error
	*v, err = parseValueBytes(line[p:end])
	return end, err
}

// scanNumber decodes the value field at b[p:] into *v in the pass that
// finds its end — the index of the next ',', or len(b) — if it is a
// pointer, a plain decimal or a float scanFloat reads, trying kind's form
// first: a template's register keeps the kind it had. ok is false for any
// other field, which parseValueBytes decides. The three forms exclude each
// other (only a pointer holds an 'x', only a float a '.', 'e' or 'E'), so
// kind changes how fast a field decodes, never what to.
func scanNumber(b []byte, p int, kind ValueKind, v *Value) (end int, ok bool) {
	if kind == KindFloat {
		if f, end, ok := scanFloat(b, p); ok {
			*v = FloatValue(f)
			return end, true
		}
	}
	if hasHexPrefix(b[p:]) {
		a, end, ok := scanHex(b, p+2)
		*v = PtrValue(a)
		return end, ok
	}
	if n, end, ok := scanInt(b, p); ok {
		*v = IntValue(n)
		return end, true
	}
	if kind != KindFloat {
		if f, end, ok := scanFloat(b, p); ok {
			*v = FloatValue(f)
			return end, true
		}
	}
	return 0, false
}

// scanFloat reads the float field at b[p:], -?digits[.digits][(e|E)[+-]digits]
// with a '.', an 'e' or an 'E', in one pass, and returns the value
// strconv.ParseFloat gives it, bit for bit, and where the field ends: at a
// ',' or at len(b). The significant digits, at most 19, make a uint64
// mantissa and the rest a decimal exponent; a mantissa below 2^53 with an
// exponent within ±22 is one correctly rounded multiply or divide
// (Clinger's fast path: both operands are exact), and any other is
// eiselLemire64's. ok is false for any other field, and for one of more
// than 19 significant digits or one Eisel-Lemire cannot decide (a
// subnormal, an overflow, a halfway case); parseValueBytes decides those.
// Every float the writer writes has at most 17 significant digits.
func scanFloat(b []byte, p int) (f float64, end int, ok bool) {
	i := p
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	man, exp := uint64(0), 0 // the significant digits; the exponent of the last
	if i, man, ok = scanMantissa(b, i, 0); !ok || i == from {
		return 0, 0, false
	}
	marked := false
	if i < len(b) && b[i] == '.' {
		from = i + 1
		if i, man, ok = scanMantissa(b, from, man); !ok || i == from {
			return 0, 0, false
		}
		exp, marked = from-i, true
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (eneg || b[i] == '+') {
			i++
		}
		from = i
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // far past any exponent Eisel-Lemire takes
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == from {
			return 0, 0, false
		}
		if eneg {
			e = -e
		}
		exp, marked = exp+e, true
	}
	if !marked || i < len(b) && b[i] != ',' {
		return 0, 0, false
	}
	if man < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(man)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / exactPow10[-exp], i, true
		}
		return f * exactPow10[exp], i, true
	}
	f, ok = eiselLemire64(man, exp, neg)
	return f, i, ok
}

// scanMantissa appends the run of decimal digits at b[i:] to man and
// returns where the run ends and the new man. Leading zeros are not
// significant digits: ok is false where man would hold more than 19,
// which is where it would reach 10^19.
func scanMantissa(b []byte, i int, man uint64) (_ int, _ uint64, ok bool) {
	// Eight digits at a time while man has at most 11 significant ones.
	for i+8 <= len(b) && man < 1e11 {
		v, k := digitRun(b, i)
		man, i = man*exactPow10u[k]+v, i+k
		if k < 8 {
			return i, man, true
		}
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if man >= 1e18 {
			return 0, 0, false
		}
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man, true
}

// exactPow10u holds the powers of ten digitRun's runs take.
var exactPow10u = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// operand decodes "<tag>,<idx>,<size>,<value>,<isreg>,<name>" into *o, one
// field after the other, nothing split off first, and returns where its
// value field sits in line. The tag is decode's to read: every line of a
// block but its header is an operand.
func (d *decoder) operand(line []byte, o *Operand) (span, error) {
	idx, p, ok := scanInt(line, nextComma(line, 0)+1)
	if !ok || p == len(line) {
		return span{}, lineErr(line, "operand", badField("operand index", line))
	}
	size, p, ok := scanInt(line, p+1)
	if !ok || p == len(line) {
		return span{}, lineErr(line, "operand", badField("operand size", line))
	}
	val := span{from: p + 1}
	p, err := scanValue(line, val.from, &o.Value)
	if err != nil || p == len(line) {
		return span{}, lineErr(line, "operand", err)
	}
	val.to = p
	reg := p + 1
	name := nextComma(line, reg) + 1
	if name > len(line) || nextComma(line, name) != len(line) {
		return span{}, lineErr(line, "operand", nil)
	}
	o.Index, o.Size = int(idx), int(size)
	o.IsReg = name == reg+2 && line[reg] == '1'
	if o.Name, ok = d.in.intern(line[name:]); !ok {
		return span{}, badName(line)
	}
	return val, nil
}

// header decodes "0,<line>,<func>,<block>,<opcode>,<dynid>" into the
// header fields of *r, and returns where its DynID field sits in line; Ops
// and Result are left as the caller made them.
func (d *decoder) header(line []byte, r *Record) (span, error) {
	ln, p, ok := scanInt(line, 2)
	if !ok || p == len(line) {
		return span{}, lineErr(line, "header", badField("line number", line))
	}
	fn := p + 1
	blk := nextComma(line, fn) + 1
	op := nextComma(line, blk) + 1 // a blk past the end lands this past it too
	if op > len(line) {
		return span{}, lineErr(line, "header", nil)
	}
	opcode, p, ok := scanInt(line, op)
	if !ok || p == len(line) {
		return span{}, lineErr(line, "header", badField("opcode", line))
	}
	dynAt := p + 1
	dyn, p, ok := scanInt(line, dynAt)
	if !ok || p != len(line) {
		return span{}, lineErr(line, "header", badField("dynamic id", line))
	}
	r.Line, r.Opcode, r.DynID = int(ln), int(opcode), dyn
	var okFn, okBlk bool
	r.Func, okFn = d.in.intern(line[fn : blk-1])
	r.Block, okBlk = d.in.intern(line[blk : op-1])
	if !okFn || !okBlk {
		return span{}, badName(line)
	}
	return span{dynAt, len(line)}, nil
}

// nextLine returns the next line of data starting at pos and the new
// position, stripping the trailing '\n' and an optional '\r'.
func nextLine(data []byte, pos int) ([]byte, int) {
	nl := bytes.IndexByte(data[pos:], '\n')
	var line []byte
	if nl < 0 {
		line = data[pos:]
		pos = len(data)
	} else {
		line = data[pos : pos+nl]
		pos += nl + 1
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, pos
}

// headerMark is what precedes every block header but the first: a line
// break followed by the header's leading "0,".
var headerMark = []byte("\n0,")

// isHeaderLine reports whether a line starts an instruction block.
func isHeaderLine(line []byte) bool {
	return len(line) >= 2 && line[0] == '0' && line[1] == ','
}

// decode decodes the records of data from pos on, handing each to sink
// with its template id, and returns the position of the first unconsumed
// byte. This is the single textual decode loop; WindowReader.nextText
// hands it its window. A block a template matches is decoded from it, in
// place; any other is parsed field by field into loose, and may become a
// template.
func (d *decoder) decode(sink Sink, data []byte, pos int) (int, error) {
	b := &d.loose
	var line []byte
	var rec *Record // the open record, nil if none
	block := 0
	// The open record's result: any "r," line is the result (the last
	// wins), and input lines may follow it, so it is held aside and staged
	// last, when the record is sealed.
	var res Operand
	nres, resLast := 0, false
	// plain: every line of the open block so far ends in a bare LF, and it
	// has at most maxTemplateOperands operands; the parse of a plain block
	// notes where its DynID and value fields sit in tt.dyn and tt.vals,
	// from the block's start, for learn.
	plain, tt := false, &d.tt
	// flush seals the open record. A plain block whose result, if any, is
	// its last line is handed to learn, which may make it a template; its
	// bytes run up to next, where the next block starts.
	flush := func(next int) {
		if rec == nil {
			return
		}
		if nres > 0 {
			*b.stage() = res
		}
		var t *textTmpl
		if plain && (nres == 0 || nres == 1 && resLast) {
			if t = d.learn(data[block:next], rec, b.staging(), nres > 0); t != nil {
				b.ID[0] = t.ID[0]
			}
		}
		b.seal(rec, nres > 0)
		d.follow(t)
		rec = nil
		sink(b.Rec[:], b.ID[:])
	}
	for pos < len(data) {
		if isHeaderLine(data[pos:]) {
			flush(pos)
			if end := d.templated(sink, data, pos); end >= 0 {
				pos = end
				continue
			}
			block = pos
			line, pos = nextLine(data, pos)
			rec, nres, resLast = b.begin(), 0, false
			dyn, err := d.header(line, rec)
			if err != nil {
				return pos, err
			}
			plain = bareLF(data, block, pos, line)
			tt.dyn, tt.vals = dyn, tt.vals[:0]
			continue
		}
		from := pos
		line, pos = nextLine(data, pos)
		if len(line) == 0 {
			plain = false
			continue
		}
		if rec == nil {
			return pos, fmt.Errorf("trace: expected block header, got %q", line)
		}
		o := &res
		if resLast = len(line) > 1 && line[0] == 'r' && line[1] == ','; resLast {
			nres++
		} else {
			o = b.stage()
		}
		val, err := d.operand(line, o)
		if err != nil {
			return pos, err
		}
		if plain = plain && bareLF(data, from, pos, line) && len(tt.vals) < maxTemplateOperands; plain {
			at := from - block
			tt.vals = append(tt.vals, span{at + val.from, at + val.to})
		}
	}
	flush(pos)
	return pos, nil
}

// bareLF reports whether line, which nextLine read from data[from:pos],
// ended in a '\n' with no '\r' before it.
func bareLF(data []byte, from, pos int, line []byte) bool {
	return data[pos-1] == '\n' && pos-from == len(line)+1
}

// CountRecords returns the number of instruction blocks in a textual
// trace without parsing it (one block per line starting with "0,"). It is
// a pass over the whole trace beside the decode, so it looks for line
// breaks eight bytes at a time: XORed with eight '\n's a word has a zero
// byte where a line ends, and (w-0x01…)&^w&0x80… flags the zero bytes —
// and sometimes the byte above one, so a flagged byte is compared again.
func CountRecords(data []byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	n, i := 0, 0
	if isHeaderLine(data) {
		n++
	}
	for ; i+10 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:]) ^ ones*'\n'
		for m := (w - ones) &^ w & highs; m != 0; m &= m - 1 {
			if k := i + bits.TrailingZeros64(m)/8; data[k] == '\n' && data[k+1] == '0' && data[k+2] == ',' {
				n++
			}
		}
	}
	return n + bytes.Count(data[i:], headerMark)
}
