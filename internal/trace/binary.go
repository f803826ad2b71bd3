package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Compact binary trace format ("ACTB"), the on-disk fast path beside the
// LLVM-Tracer-style text format. Layout:
//
//	magic   "ACTB" (4 bytes)
//	version 1 byte (currently 1)
//	opcode table: uvarint count, then per entry
//	        uvarint opcode, uvarint len, name bytes
//	        (self-description: a reader can name opcodes without this
//	        package's opcode constants)
//	records until EOF, each:
//	        flags   1 byte (bit 0: has result)
//	        line    zigzag varint
//	        func    string ref
//	        block   string ref
//	        opcode  uvarint
//	        dynid   zigzag varint
//	        nops    uvarint, then nops operands, then the result if flagged
//	operand:
//	        meta    1 byte (bits 0-1: value kind, bit 2: is-register)
//	        index   zigzag varint
//	        size    uvarint
//	        value   int: zigzag varint | float: 8-byte LE IEEE-754 |
//	                ptr: uvarint
//	        name    string ref
//	string ref:
//	        uvarint v; v == 0 introduces a new string (uvarint len + bytes)
//	        appended to the table, v >= 1 references table[v-1]. The table
//	        is pre-seeded with "" at index 0, so every repeated identifier
//	        costs exactly one small integer.
//
// The format is written and read strictly sequentially (the string table
// is stateful), so unlike the text format it is not chunk-splittable; its
// decoder is far faster than even the parallel text path, so nothing is
// lost.

var binaryMagic = []byte("ACTB")

const binaryVersion = 1

// Format discriminates the two trace encodings.
type Format int

const (
	// FormatText is the LLVM-Tracer-style line format.
	FormatText Format = iota
	// FormatBinary is the compact varint + string-table format.
	FormatBinary
)

func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "text"
}

// ParseFormat parses a format name ("text" or "binary").
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text", "txt":
		return FormatText, nil
	case "binary", "bin":
		return FormatBinary, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (want text or binary)", s)
}

// DetectFormat sniffs the encoding of an in-memory trace by its magic.
func DetectFormat(data []byte) Format {
	if bytes.HasPrefix(data, binaryMagic) {
		return FormatBinary
	}
	return FormatText
}

// RecordWriter is the sink side of a trace encoding; *Writer (text) and
// *BinaryWriter both implement it, so the tracer can emit either format
// directly.
type RecordWriter interface {
	Write(*Record) error
	Flush() error
	Count() int64
}

// Reader is the streaming side of a trace encoding; *WindowReader
// implements it for both formats.
type Reader interface {
	// Next returns the next record, or (nil, nil) at end of stream.
	Next() (*Record, error)
}

// zigzag / varint helpers (protobuf-style).

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// BinaryWriter emits records in the compact binary format. Like Writer it
// is single-threaded.
type BinaryWriter struct {
	bw      *bufio.Writer
	scratch []byte
	strs    map[string]uint64 // interned string -> table index (1-based ref)
	count   int64
	started bool
	err     error
}

// NewBinaryWriter returns a buffered binary trace writer. The header is
// written lazily on the first record (or Flush), so creating a writer is
// free.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		bw:   bufio.NewWriterSize(w, 1<<16),
		strs: map[string]uint64{"": 1},
	}
}

func (w *BinaryWriter) start() error {
	if w.started {
		return nil
	}
	w.started = true
	b := append(w.scratch[:0], binaryMagic...)
	b = append(b, binaryVersion)
	n := 0
	for _, name := range opcodeNames {
		if name != "" {
			n++
		}
	}
	b = appendUvarint(b, uint64(n))
	for op, name := range opcodeNames {
		if name == "" {
			continue
		}
		b = appendUvarint(b, uint64(op))
		b = appendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	w.scratch = b
	_, err := w.bw.Write(b)
	return err
}

// appendString appends a string reference, introducing the string to the
// table on first use.
func (w *BinaryWriter) appendString(b []byte, s string) []byte {
	if ref, ok := w.strs[s]; ok {
		return appendUvarint(b, ref)
	}
	w.strs[s] = uint64(len(w.strs) + 1)
	b = appendUvarint(b, 0)
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func (w *BinaryWriter) appendOperand(b []byte, o *Operand) []byte {
	meta := byte(o.Value.Kind) & 3
	if o.IsReg {
		meta |= 4
	}
	b = append(b, meta)
	b = appendVarint(b, int64(o.Index))
	b = appendUvarint(b, uint64(o.Size))
	switch o.Value.Kind {
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, o.Value.bits)
	case KindPtr:
		b = appendUvarint(b, o.Value.bits)
	default:
		b = appendVarint(b, int64(o.Value.bits))
	}
	return w.appendString(b, o.Name)
}

// Write appends one record to the trace.
func (w *BinaryWriter) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil {
		w.err = err
		return err
	}
	b := w.scratch[:0]
	var flags byte
	if r.Result != nil {
		flags |= 1
	}
	b = append(b, flags)
	b = appendVarint(b, int64(r.Line))
	b = w.appendString(b, r.Func)
	b = w.appendString(b, r.Block)
	b = appendUvarint(b, uint64(r.Opcode))
	b = appendVarint(b, r.DynID)
	b = appendUvarint(b, uint64(len(r.Ops)))
	for i := range r.Ops {
		b = w.appendOperand(b, &r.Ops[i])
	}
	if r.Result != nil {
		b = w.appendOperand(b, r.Result)
	}
	w.scratch = b
	w.count++
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Count returns the number of records written so far.
func (w *BinaryWriter) Count() int64 { return w.count }

// Flush writes the header (for empty traces) and flushes buffered output.
func (w *BinaryWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil {
		w.err = err
		return err
	}
	return w.bw.Flush()
}

// EncodeBinary renders records in the compact binary format.
func EncodeBinary(recs []Record) []byte {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for i := range recs {
		_ = w.Write(&recs[i]) // bytes.Buffer writes cannot fail
	}
	_ = w.Flush()
	return buf.Bytes()
}

const (
	maxBinaryString   = 1 << 24 // sanity cap against corrupt length fields
	maxBinaryOperands = 1 << 20 // sanity cap against corrupt counts
)

// binDecoder is the one ACTB decoder: one walk over data (a whole trace, or
// the window of a stream that starts at offset base) with a local cursor,
// and operand storage batched in an arena like the text decoder's.
//
// Each helper takes the position of its field and returns the position
// after it or, negative, one of the cursor codes truncated and corrupt,
// having noted where and why in the decoder; the walk hands the code back
// up and err turns the note into the error. Nothing on the cursor's way
// formats, wraps or returns an error, and d.pos moves once per record.
type binDecoder struct {
	data []byte
	pos  int   // the next record (or the header, at offset 0)
	base int64 // stream offset of data[0], for error messages
	strs []string
	ops  []Operand

	// The fault a walk stopped at: its offset in data, the field it is in
	// and, if the field does not simply run out, what is wrong with it.
	at        int
	what, why string
}

// The cursor codes.
const (
	// truncated: the field runs past the end of data. It is the one failure
	// more bytes can cure: the stream reader refills and retries on it, and
	// at the true end of a trace it is the truncation error.
	truncated = -1
	// corrupt: no further bytes can make the field valid.
	corrupt = -2
)

// fault notes a fault at data[at] and returns its code.
func (d *binDecoder) fault(code, at int, what, why string) int {
	d.at, d.what, d.why = at, what, why
	return code
}

// in names the field a helper's noted fault is in, and returns its code.
func (d *binDecoder) in(code int, what string) int {
	d.what = what
	return code
}

// err is the error of the walk that stopped with code.
func (d *binDecoder) err(code int) error {
	what := d.what
	if d.why != "" {
		what += ": " + d.why
	}
	if code == truncated {
		return fmt.Errorf("trace: binary trace truncated at byte offset %d (%s): %w", d.base+int64(d.at), what, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: binary trace corrupt at byte offset %d (%s)", d.base+int64(d.at), what)
}

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// uvarint reads the varint at data[p:]. Most fields — string refs, sizes,
// small ints — are one byte.
func (d *binDecoder) uvarint(p int) (uint64, int) {
	if p < len(d.data) {
		if b := d.data[p]; b < 0x80 {
			return uint64(b), p + 1
		}
	}
	return d.uvarintLong(p)
}

// uvarintLong reads a varint of any length. With eight bytes of data left,
// one of up to eight bytes is decoded from one word without a branch per
// byte (Lemire et al.: varint decoding is bound by branches, not bytes):
// the first byte with its high bit clear ends it, and three shift-and-merge
// steps pack its 7-bit groups.
func (d *binDecoder) uvarintLong(p int) (uint64, int) {
	if len(d.data)-p >= 8 {
		w := binary.LittleEndian.Uint64(d.data[p:])
		if m := ^w & 0x8080808080808080; m != 0 {
			n := bits.TrailingZeros64(m) + 1 // 8 × the varint's length
			w &= (1<<n - 1) & 0x7f7f7f7f7f7f7f7f
			w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
			w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
			w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
			return w, p + n/8
		}
	}
	v, n := binary.Uvarint(d.data[p:])
	if n > 0 {
		return v, p + n
	}
	if n == 0 {
		return 0, d.fault(truncated, p, "", "")
	}
	return 0, d.fault(corrupt, p, "", "varint overflows 64 bits")
}

// str reads the string ref at data[p:]: an entry of the table, or a new
// string, which is checked and appended to the table.
func (d *binDecoder) str(p int) (string, int) {
	if p < len(d.data) {
		// One byte 1..127 within the table: the common repeated name.
		if r := uint(d.data[p]) - 1; r < 0x7f && r < uint(len(d.strs)) {
			return d.strs[r], p + 1
		}
	}
	return d.strLong(p)
}

func (d *binDecoder) strLong(p int) (string, int) {
	ref, p := d.uvarint(p)
	if p < 0 {
		return "", p
	}
	if ref != 0 {
		if ref > uint64(len(d.strs)) {
			return "", d.fault(corrupt, p, "", "string ref beyond table")
		}
		return d.strs[ref-1], p
	}
	n, p := d.uvarint(p)
	switch {
	case p < 0:
		return "", p
	case n > maxBinaryString:
		return "", d.fault(corrupt, p, "", "bad string length")
	case uint64(len(d.data)-p) < n:
		return "", d.fault(truncated, p, "", "")
	}
	b := d.data[p : p+int(n)]
	if bytes.ContainsAny(b, ",\r\n") {
		// The text format has no way to write such a name (its decoder
		// refuses a '\r' inside one too): converted, the record would
		// parse as a different one or not at all.
		return "", d.fault(corrupt, p, "", "name contains a field or line separator")
	}
	s := string(b)
	d.strs = append(d.strs, s)
	return s, p + int(n)
}

// operand decodes the operand at data[p:] into o, every field of which it
// sets.
func (d *binDecoder) operand(o *Operand, p int) int {
	if p >= len(d.data) {
		return d.fault(truncated, p, "operand meta", "")
	}
	meta := d.data[p]
	kind := ValueKind(meta & 3)
	if kind > KindPtr {
		return d.fault(corrupt, p+1, "operand meta", "bad value kind")
	}
	o.IsReg = meta&4 != 0
	var v uint64
	if len(d.data)-p >= 3 && (d.data[p+1]|d.data[p+2]) < 0x80 {
		// Index and size are one byte each, as almost always.
		o.Index, o.Size = int(unzigzag(uint64(d.data[p+1]))), int(d.data[p+2])
		p += 3
	} else {
		if v, p = d.uvarint(p + 1); p < 0 {
			return d.in(p, "operand index")
		}
		o.Index = int(unzigzag(v))
		if v, p = d.uvarint(p); p < 0 {
			return d.in(p, "operand size")
		}
		o.Size = int(v)
	}
	switch kind {
	case KindFloat:
		if len(d.data)-p < 8 {
			return d.fault(truncated, p, "float value", "")
		}
		v, p = binary.LittleEndian.Uint64(d.data[p:]), p+8
	case KindPtr:
		if v, p = d.uvarint(p); p < 0 {
			return d.in(p, "pointer value")
		}
	default:
		if v, p = d.uvarint(p); p < 0 {
			return d.in(p, "int value")
		}
		v = uint64(unzigzag(v))
	}
	o.Value = Value{Kind: kind, bits: v}
	if o.Name, p = d.str(p); p < 0 {
		return d.in(p, "operand name")
	}
	return p
}

// header checks the magic, the version and the opcode table at the start of
// data, and moves d.pos past them.
func (d *binDecoder) header() error {
	if len(d.data) < len(binaryMagic) && bytes.HasPrefix(binaryMagic, d.data) {
		return d.err(d.fault(truncated, 0, "magic", ""))
	}
	if !bytes.HasPrefix(d.data, binaryMagic) {
		return fmt.Errorf("trace: bad binary magic (want %q)", binaryMagic)
	}
	p := len(binaryMagic)
	if p >= len(d.data) {
		return d.err(d.fault(truncated, p, "version", ""))
	}
	if v := d.data[p]; v != binaryVersion {
		return fmt.Errorf("trace: unsupported binary trace version %d (want %d)", v, binaryVersion)
	}
	if p = d.opcodeTable(p + 1); p < 0 {
		return d.err(p)
	}
	d.pos = p
	return nil
}

// opcodeTable walks the opcode table at data[p:]; the decoder does not
// need the names it carries.
func (d *binDecoder) opcodeTable(p int) int {
	n, p := d.uvarint(p)
	if p < 0 {
		return d.in(p, "opcode table size")
	}
	if n > 4096 {
		return d.fault(corrupt, p, "opcode table size", "")
	}
	for i := uint64(0); i < n; i++ {
		if _, p = d.uvarint(p); p < 0 {
			return d.in(p, "opcode table entry")
		}
		var ln uint64
		if ln, p = d.uvarint(p); p < 0 {
			return d.in(p, "opcode table entry")
		}
		if ln > maxBinaryString {
			return d.fault(corrupt, p, "opcode table entry", "")
		}
		if uint64(len(d.data)-p) < ln {
			return d.fault(truncated, p, "opcode table entry", "")
		}
		p += int(ln)
	}
	return p
}

// record decodes the record at d.pos into rec, every field of which it
// sets, and moves d.pos past it. Its operands are decoded straight into
// slots of the arena d.ops (callers must not hold d.ops aliases across
// arena growth — the record's own Ops/Result sub-slices are safe, matching
// the text decoder). The caller guarantees d.pos < len(d.data).
func (d *binDecoder) record(rec *Record) error {
	p := d.walk(rec)
	if p < 0 {
		return d.err(p)
	}
	d.pos = p
	return nil
}

func (d *binDecoder) walk(rec *Record) int {
	p := d.pos
	flags := d.data[p]
	if flags > 1 {
		return d.fault(corrupt, p+1, "record flags", "")
	}
	v, p := d.uvarint(p + 1)
	if p < 0 {
		return d.in(p, "line")
	}
	rec.Line = int(unzigzag(v))
	if rec.Func, p = d.str(p); p < 0 {
		return d.in(p, "function name")
	}
	if rec.Block, p = d.str(p); p < 0 {
		return d.in(p, "block label")
	}
	if v, p = d.uvarint(p); p < 0 {
		return d.in(p, "opcode")
	}
	rec.Opcode = int(v)
	if v, p = d.uvarint(p); p < 0 {
		return d.in(p, "dynamic id")
	}
	rec.DynID = unzigzag(v)
	nops, p := d.uvarint(p)
	if p < 0 {
		return d.in(p, "operand count")
	}
	if nops > maxBinaryOperands {
		return d.fault(corrupt, p, "operand count", "")
	}
	rec.Ops, rec.Result = nil, nil
	start := len(d.ops)
	for i := uint64(0); i < nops && p >= 0; i++ {
		d.ops = extend(d.ops)
		p = d.operand(&d.ops[len(d.ops)-1], p)
	}
	if nops > 0 && p >= 0 {
		rec.Ops = d.ops[start:len(d.ops):len(d.ops)]
	}
	if flags != 0 && p >= 0 {
		d.ops = extend(d.ops)
		rec.Result = &d.ops[len(d.ops)-1]
		p = d.operand(rec.Result, p)
	}
	return p
}

// extend lengthens s by one element, reusing spare capacity as it is: the
// caller sets every field of the new element.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// ParseBinary parses a complete in-memory ACTB trace, as ParseBytes does
// one whose magic says ACTB; input without the magic fails on the header.
func ParseBinary(data []byte) ([]Record, error) {
	return parse(data, FormatBinary)
}

// presize sizes b for the whole trace past the header at d.pos. Unlike
// text there is no cheap record count, so it decodes up to 64 records on a
// probe copy of d — its own string table and arena, d untouched — and
// scales their record and operand counts by the share of the record bytes
// they take, plus an eighth: records and arena are then allocated once,
// not regrown logarithmically many times (regrowing pointer-bearing slices
// is pure GC pressure).
func (d *binDecoder) presize(b *RecordBatch) {
	probe := *d
	probe.strs, probe.ops = slices.Clone(d.strs), nil
	var rec Record
	n := 0
	for ; n < 64 && probe.pos < len(d.data) && probe.record(&rec) == nil; n++ {
	}
	if n == 0 {
		return
	}
	scale := float64(len(d.data)-d.pos) / float64(probe.pos-d.pos) * 9 / 8
	b.Recs = make([]Record, 0, int(float64(n)*scale)+64)
	b.ops = make([]Operand, 0, int(float64(len(probe.ops))*scale)+64)
}

// Encode renders records in the chosen format.
func Encode(recs []Record, f Format) []byte {
	if f == FormatBinary {
		return EncodeBinary(recs)
	}
	return EncodeAll(recs)
}

// NewRecordWriter returns a writer for the chosen format over w.
func NewRecordWriter(w io.Writer, f Format) RecordWriter {
	if f == FormatBinary {
		return NewBinaryWriter(w)
	}
	return NewWriter(w)
}
