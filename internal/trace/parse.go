package trace

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// This file is the allocation-free textual parse path. Instead of
// bufio.Scanner.Text() + strings.Split + strconv.Atoi — one line string,
// one field slice, and six field strings per trace line — the decoder
// walks the input byte slice directly, parses integers and pointers
// without materializing strings, interns the few distinct identifier
// strings (function names, block labels, operand names), and batches
// operand storage in a shared arena so a record block costs amortized
// zero heap allocations. There is no line-length cap on this path.

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

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// Length plus first, middle and last byte tell apart the names that
	// alternate in practice ("i" / "arrayidx" / "17", "for.body.3" /
	// "for.inc.4"); a collision only costs the map probe it would have
	// paid anyway.
	n := len(b)
	slot := &in.memo[((n*31+int(b[0]))*31+int(b[n-1])*17+int(b[n/2])*5)&(len(in.memo)-1)]
	if *slot == string(b) { // compiles to a compare, no allocation
		return *slot
	}
	s, ok := in.tab[string(b)]
	if !ok {
		s = string(b)
		in.tab[s] = s
	}
	*slot = s
	return s
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

// parseIntBytes is strconv.ParseInt(s, 10, 64) over a byte slice.
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	var n uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(c))/10 {
			return 0, false
		}
		n = n*10 + uint64(c)
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > math.MaxInt64 {
		return 0, false
	}
	return int64(n), true
}

// parseHexBytes parses a bare (no 0x prefix) hexadecimal uint64.
func parseHexBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if n > math.MaxUint64>>4 {
			return 0, false
		}
		n = n<<4 | d
	}
	return n, true
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
		a, ok := parseHexBytes(h[2:])
		if !ok {
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
	i, ok := parseIntBytes(b)
	if !ok {
		return Value{}, fmt.Errorf("trace: bad int value %q", b)
	}
	return IntValue(i), nil
}

// splitFields6 splits a trace line into exactly 6 comma-separated fields.
// Names never contain commas (identifiers and labels only), so the plain
// split is exact.
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

// decoder holds the reusable state of one textual decode: the name
// interner and the operand arena the records' Ops/Result slices point
// into.
type decoder struct {
	in     *interner
	ops    []Operand
	resIdx []int // arena indices of the open block's "r," lines
}

func newDecoder() *decoder {
	return &decoder{in: newInterner()}
}

func (d *decoder) parseOperand(line []byte) (Operand, error) {
	f, ok := splitFields6(line)
	if !ok {
		return Operand{}, fmt.Errorf("trace: operand line does not have 6 fields: %q", line)
	}
	idx, ok := parseIntBytes(f[1])
	if !ok {
		return Operand{}, fmt.Errorf("trace: bad operand index in %q", line)
	}
	size, ok := parseIntBytes(f[2])
	if !ok {
		return Operand{}, fmt.Errorf("trace: bad operand size in %q", line)
	}
	val, err := parseValueBytes(f[3])
	if err != nil {
		return Operand{}, err
	}
	return Operand{
		Index: int(idx),
		Size:  int(size),
		Value: val,
		IsReg: len(f[4]) == 1 && f[4][0] == '1',
		Name:  d.in.intern(f[5]),
	}, nil
}

func (d *decoder) parseHeader(line []byte) (Record, error) {
	f, ok := splitFields6(line)
	if !ok {
		return Record{}, fmt.Errorf("trace: header line does not have 6 fields: %q", line)
	}
	ln, ok := parseIntBytes(f[1])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad line number in %q", line)
	}
	op, ok := parseIntBytes(f[4])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad opcode in %q", line)
	}
	dyn, ok := parseIntBytes(f[5])
	if !ok {
		return Record{}, fmt.Errorf("trace: bad dynamic id in %q", line)
	}
	return Record{
		Line:   int(ln),
		Func:   d.in.intern(f[2]),
		Block:  d.in.intern(f[3]),
		Opcode: int(op),
		DynID:  dyn,
	}, nil
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

// decodeText appends every record in data to dst. When dst has exactly
// enough capacity (see CountRecords) the decode performs no slice growth,
// which is what lets ParseBytesParallel assemble chunk results in place.
func (d *decoder) decodeText(data []byte, dst []Record) ([]Record, error) {
	_, recs, err := d.decodeN(data, 0, dst, -1, nil)
	return recs, err
}

// decodeN appends up to max records (max < 0: all) from data starting at
// pos to dst, returning the position of the first unconsumed byte. A
// non-nil filter decodes rejected opcodes header-only: their operand
// lines are hopped over unread, straight to the next block header, so a
// header-only sweep pays for one header parse per record and nothing per
// operand. This is the single textual decode loop — ParseBytes and
// WindowReader differ only in the arguments.
func (d *decoder) decodeN(data []byte, pos int, dst []Record, max int, filter func(opcode int) bool) (int, []Record, error) {
	start := len(dst)
	var line []byte
	cur := -1 // index in dst of the open record, -1 if none
	opStart := len(d.ops)
	d.resIdx = d.resIdx[:0]
	// flush attaches the open record's arena extent: its input operands as
	// a capacity-clamped sub-slice (so a caller's append cannot clobber the
	// next record) and the result: any "r," line is the result (the last
	// wins) and input lines may follow it. Arena growth after this point copies the backing array
	// but never mutates already-written elements, so the aliases stay
	// value-correct.
	flush := func() {
		if cur < 0 {
			return
		}
		r := &dst[cur]
		end := len(d.ops)
		switch {
		case len(d.resIdx) == 0:
			// No result: the whole extent is input operands.
		case len(d.resIdx) == 1 && d.resIdx[0] == end-1:
			// Common case: a single result line closing the block.
			r.Result = &d.ops[end-1]
			end--
		default:
			// Rare shape (result mid-block or repeated): compact the input
			// operands to the front of the extent, keep the last result.
			// Only this block's slots [opStart:end) move, so earlier
			// records' aliases are untouched.
			res := d.ops[d.resIdx[len(d.resIdx)-1]]
			isRes := make(map[int]bool, len(d.resIdx))
			for _, i := range d.resIdx {
				isRes[i] = true
			}
			w := opStart
			for i := opStart; i < end; i++ {
				if !isRes[i] {
					d.ops[w] = d.ops[i]
					w++
				}
			}
			d.ops[w] = res
			d.ops = d.ops[:w+1]
			r.Result = &d.ops[w]
			end = w
		}
		if end > opStart {
			r.Ops = d.ops[opStart:end:end]
		}
		opStart = len(d.ops)
		cur = -1
		d.resIdx = d.resIdx[:0]
	}
	for pos < len(data) {
		lineStart := pos
		line, pos = nextLine(data, pos)
		if len(line) == 0 {
			continue
		}
		switch {
		case isHeaderLine(line):
			if max >= 0 && len(dst)-start == max {
				flush()
				return lineStart, dst, nil
			}
			flush()
			rec, err := d.parseHeader(line)
			if err != nil {
				return pos, nil, err
			}
			dst = append(dst, rec)
			cur = len(dst) - 1
			if filter != nil && !filter(rec.Opcode) {
				// Skip the operand lines in one hop: the next header is the
				// next line starting "0,". The search starts on the newline
				// that ended this header, so an adjacent header is found.
				if i := bytes.Index(data[pos-1:], headerMark); i >= 0 {
					pos += i
				} else {
					pos = len(data)
				}
			}
		default:
			if cur < 0 {
				return pos, nil, fmt.Errorf("trace: expected block header, got %q", line)
			}
			op, err := d.parseOperand(line)
			if err != nil {
				return pos, nil, err
			}
			d.ops = append(d.ops, op)
			if line[0] == 'r' && line[1] == ',' {
				d.resIdx = append(d.resIdx, len(d.ops)-1)
			}
		}
	}
	flush()
	return pos, dst, nil
}

// CountRecords returns the number of instruction blocks in a textual
// trace without parsing it (one block per line starting with "0,").
func CountRecords(data []byte) int {
	n := bytes.Count(data, headerMark)
	if isHeaderLine(data) {
		n++
	}
	return n
}
