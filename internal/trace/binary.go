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
// LLVM-Tracer-style text format. A trace repeats few record shapes — the
// 14 ports at scale 24 run 1,524,329 records of 2,325 — so version 2, the
// one BinaryWriter writes, sends each shape once, as a template, and a
// record as a reference to its template plus the values only it carries
// (the per-instruction tables of VPC trace compression, Burtscher et al.,
// IEEE TC 2005). Layout:
//
//	magic   "ACTB" (4 bytes)
//	version 1 byte (2)
//	opcode table: uvarint count, then per entry
//	        uvarint opcode, uvarint len, name bytes
//	        (self-description: a reader can name opcodes without this
//	        package's opcode constants)
//	records until EOF, each:
//	        template  uvarint t; t == 0 defines a new template, appended to
//	                  the table, t >= 1 is table[t-1]
//	        dynid     zigzag varint: DynID minus the previous record's (0
//	                  before the first)
//	        values    one per register operand of the template, in order,
//	                  the result last: int: zigzag varint | float: 8-byte LE
//	                  IEEE-754 | ptr: zigzag varint of the value minus this
//	                  template slot's previous value (0 before its first),
//	                  modulo 2^64
//	template definition (the record's static half):
//	        flags   1 byte (bit 0: has result, bit 1: one-off)
//	        line    zigzag varint
//	        func    string ref
//	        block   string ref
//	        opcode  uvarint
//	        nops    uvarint, then nops operands, then the result if flagged
//	operand:
//	        meta    1 byte (bits 0-1: value kind, bit 2: is-register)
//	        index   zigzag varint
//	        size    uvarint
//	        value   non-register operands only, as in version 1
//	        name    string ref
//	one-off definition (flags bit 1): a record of more than 64 input
//	        operands is no template — a 2-byte reference to one would decode
//	        to all of them — but a definition that carries every operand's
//	        value, joins no table and is followed by the dynid delta alone
//	string ref:
//	        uvarint v; v == 0 introduces a new string (uvarint len + bytes)
//	        appended to the table, v >= 1 references table[v-1]. The table
//	        is pre-seeded with "" at index 0, so every repeated identifier
//	        costs exactly one small integer.
//
// The writer keys templates by the record's whole static half — every
// field but DynID and the values of register operands, value kinds
// included — so decoding and encoding again reproduces any record stream
// byte for byte.
//
// Version 1, the legacy layout, is still read. It has no templates: a
// record is its flags byte, line, func and block refs, opcode, dynid (zigzag
// varint, not a delta), nops, then its operands and result in full, each
// operand's value written before its name whether it is a register or not.
//
// The format is written and read strictly sequentially (the string and
// template tables and the pointer deltas are stateful), so unlike the text
// format it is not chunk-splittable; its decoder is far faster than even
// the parallel text path, so nothing is lost.

var binaryMagic = []byte("ACTB")

// The format versions: BinaryWriter writes templateVersion; the decoder
// reads both.
const (
	binaryVersion   = 1 // the legacy layout: every record in full
	templateVersion = 2 // a record is a template reference plus its values
)

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

// Reader is the decoding side of a trace encoding; *WindowReader
// implements it for both formats.
type Reader interface {
	// ReadInto decodes to the end of the stream, or of the bytes fed so
	// far, handing each record and its template id to sink as it is
	// decoded (see Sink).
	ReadInto(sink Sink) error
}

// zigzag / varint helpers (protobuf-style).

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// BinaryWriter emits records in the compact binary format, version 2.
// Like Writer it is single-threaded.
type BinaryWriter struct {
	bw      *bufio.Writer
	scratch []byte
	key     []byte            // the static half of the record being written
	strs    map[string]uint64 // interned string -> table index (1-based ref)
	tmpls   map[string]wtmpl  // static half -> its template
	prev    []uint64          // the templates' pointer slots' previous values
	dyn     int64             // the previous record's DynID
	count   int64
	started bool
	err     error
}

// NewBinaryWriter returns a buffered binary trace writer. The header is
// written lazily on the first record (or Flush), so creating a writer is
// free.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		bw:    bufio.NewWriterSize(w, 1<<16),
		strs:  map[string]uint64{"": 1},
		tmpls: map[string]wtmpl{},
	}
}

// wtmpl is a template as the writer knows it: its reference and where its
// pointer slots start in prev.
type wtmpl struct{ ref, prev int }

func (w *BinaryWriter) start() error {
	if w.started {
		return nil
	}
	w.started = true
	b := append(w.scratch[:0], binaryMagic...)
	b = append(b, templateVersion)
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

// appendValue appends a value's payload as version 1 writes every operand's
// and version 2 a non-register operand's.
func appendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindFloat:
		return binary.LittleEndian.AppendUint64(b, v.bits)
	case KindPtr:
		return appendUvarint(b, v.bits)
	default:
		return appendVarint(b, int64(v.bits))
	}
}

// operandMeta is an operand's meta byte.
func operandMeta(o *Operand) byte {
	meta := byte(o.Value.Kind) & 3
	if o.IsReg {
		meta |= 4
	}
	return meta
}

// appendKey appends r's static half to b, strings by length and bytes: the
// template table's key, unambiguous without the string table.
func appendKey(b []byte, r *Record) []byte {
	var flags byte
	if r.Result != nil {
		flags = 1
	}
	b = append(b, flags)
	b = appendVarint(b, int64(r.Line))
	b = appendUvarint(b, uint64(len(r.Func)))
	b = append(b, r.Func...)
	b = appendUvarint(b, uint64(len(r.Block)))
	b = append(b, r.Block...)
	b = appendUvarint(b, uint64(r.Opcode))
	b = appendUvarint(b, uint64(len(r.Ops)))
	for i := range r.Ops {
		b = appendKeyOperand(b, &r.Ops[i])
	}
	if r.Result != nil {
		b = appendKeyOperand(b, r.Result)
	}
	return b
}

func appendKeyOperand(b []byte, o *Operand) []byte {
	b = append(b, operandMeta(o))
	b = appendVarint(b, int64(o.Index))
	b = appendUvarint(b, uint64(o.Size))
	if !o.IsReg {
		b = appendValue(b, o.Value)
	}
	b = appendUvarint(b, uint64(len(o.Name)))
	return append(b, o.Name...)
}

// appendDefinition appends r's template definition, or its one-off
// definition, which carries every operand's value.
func (w *BinaryWriter) appendDefinition(b []byte, r *Record, oneOff bool) []byte {
	var flags byte
	if r.Result != nil {
		flags = 1
	}
	if oneOff {
		flags |= 2
	}
	b = append(b, flags)
	b = appendVarint(b, int64(r.Line))
	b = w.appendString(b, r.Func)
	b = w.appendString(b, r.Block)
	b = appendUvarint(b, uint64(r.Opcode))
	b = appendUvarint(b, uint64(len(r.Ops)))
	for i := range r.Ops {
		b = w.appendDefOperand(b, &r.Ops[i], oneOff)
	}
	if r.Result != nil {
		b = w.appendDefOperand(b, r.Result, oneOff)
	}
	return b
}

func (w *BinaryWriter) appendDefOperand(b []byte, o *Operand, values bool) []byte {
	b = append(b, operandMeta(o))
	b = appendVarint(b, int64(o.Index))
	b = appendUvarint(b, uint64(o.Size))
	if values || !o.IsReg {
		b = appendValue(b, o.Value)
	}
	return w.appendString(b, o.Name)
}

// appendRegValue appends a register operand's value; prev is the
// template slot's previous pointer value, which a pointer replaces.
func appendRegValue(b []byte, v Value, prev []uint64, j int) ([]byte, int) {
	switch v.Kind {
	case KindFloat:
		return binary.LittleEndian.AppendUint64(b, v.bits), j
	case KindPtr:
		b = appendVarint(b, int64(v.bits-prev[j]))
		prev[j] = v.bits
		return b, j + 1
	default:
		return appendVarint(b, int64(v.bits)), j
	}
}

// ptrSlots counts r's register operands that hold pointers: its template's
// delta slots.
func ptrSlots(r *Record) int {
	n := 0
	for i := range r.Ops {
		if o := &r.Ops[i]; o.IsReg && o.Value.Kind == KindPtr {
			n++
		}
	}
	if o := r.Result; o != nil && o.IsReg && o.Value.Kind == KindPtr {
		n++
	}
	return n
}

// Write appends one record to the trace: a reference to the template of
// its static half, defined here on first use, then its DynID delta and
// register values.
func (w *BinaryWriter) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if err := w.start(); err != nil {
		w.err = err
		return err
	}
	b := w.scratch[:0]
	if len(r.Ops) > maxTemplateOperands {
		b = append(b, 0)
		b = w.appendDefinition(b, r, true)
		b = appendVarint(b, r.DynID-w.dyn)
		w.dyn = r.DynID
		return w.emit(b)
	}
	w.key = appendKey(w.key[:0], r)
	t, ok := w.tmpls[string(w.key)]
	if ok {
		b = appendUvarint(b, uint64(t.ref))
	} else {
		t = wtmpl{ref: len(w.tmpls) + 1, prev: len(w.prev)}
		w.tmpls[string(w.key)] = t
		w.prev = append(w.prev, make([]uint64, ptrSlots(r))...)
		b = append(b, 0)
		b = w.appendDefinition(b, r, false)
	}
	b = appendVarint(b, r.DynID-w.dyn)
	w.dyn = r.DynID
	prev, j := w.prev[t.prev:], 0
	for i := range r.Ops {
		if o := &r.Ops[i]; o.IsReg {
			b, j = appendRegValue(b, o.Value, prev, j)
		}
	}
	if o := r.Result; o != nil && o.IsReg {
		b, _ = appendRegValue(b, o.Value, prev, j)
	}
	return w.emit(b)
}

// emit writes the encoded record b.
func (w *BinaryWriter) emit(b []byte) error {
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
	// maxTemplateOperands caps a template's input operands, so what one
	// reference decodes to stays within a small multiple of its bytes.
	maxTemplateOperands = 64
)

// binDecoder is the one ACTB decoder: one walk over data (a whole trace, or
// the window of a stream that starts at offset base) with a local cursor,
// handing each record to a sink: a template reference written in place
// into its Template, any other record decoded into loose.
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

	// Version 2 (see the format comment): the template table, each
	// template's pointer slots' previous values, and the previous DynID.
	v2    bool
	tmpls []tmpl
	prev  []uint64
	dyn   int64
	// A template's definition is decoded again when a record first refers
	// to it, into a Template: from data when stable — data is the whole trace
	// and never slides — and otherwise from the copy of it kept in defs.
	stable bool
	defs   []byte
	slabs  templateSlabs
	loose  loose // a record decoded field by field, or a definition decoded again
	// replay is set on the decoder that decodes a definition again: a new
	// string the definition introduced is strs[next], not a new entry.
	replay bool
	next   int

	// The fault a walk stopped at: its offset in data, the field it is in
	// and, if the field does not simply run out, what is wrong with it.
	at        int
	what, why string
}

// tmpl is one entry of the template table: where its definition starts,
// how long the string table was before it, where its pointer slots start
// in prev, and its Template once a record referred to it. It stays this small
// because a trace of records of distinct shapes has a template each.
type tmpl struct {
	def   int
	strs0 uint32
	prev  uint32
	tpl   *Template
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
	case d.replay:
		d.next++
		return d.strs[d.next-1], p + int(n)
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
// sets. Without values, as in a version-2 definition, a register operand
// carries no value: it gets its kind and a zero payload.
func (d *binDecoder) operand(o *Operand, p int, values bool) int {
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
	switch {
	case !values && o.IsReg:
		v = 0
	case kind == KindFloat:
		if len(d.data)-p < 8 {
			return d.fault(truncated, p, "float value", "")
		}
		v, p = binary.LittleEndian.Uint64(d.data[p:]), p+8
	case kind == KindPtr:
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
	switch v := d.data[p]; v {
	case binaryVersion, templateVersion:
		d.v2 = v == templateVersion
	default:
		return fmt.Errorf("trace: unsupported binary trace version %d (want %d or %d)", v, binaryVersion, templateVersion)
	}
	if p = d.opcodeTable(p + 1); p < 0 {
		return d.err(p)
	}
	// The string table is pre-seeded with "" (ref 1), mirroring the writer.
	// The loose record's arena starts with room for 16 operands, more than
	// most records have, so a fresh reader seldom regrows it.
	if d.strs == nil {
		d.strs = make([]string, 0, 64)
		d.loose.ops = make([]Operand, 0, 16)
	}
	d.strs, d.pos = append(d.strs[:0], ""), p
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

// record decodes the record at d.pos, moves d.pos past it and hands it to
// sink, with its template id in a version-2 trace, and returns 0. The
// caller guarantees d.pos < len(d.data).
//
// A record that fails returns its cursor code, which err turns into the
// error; it is not handed on, and leaves the decoder as it found
// it — string and template tables, pointer slots, kept definitions (its
// position, its DynID and its slots' values never moved) — so the stream
// reader can decode it again from its start once more bytes are in. What
// it wrote of its values into its Template, the record's next
// decode writes again.
func (d *binDecoder) record(sink Sink) int {
	tabs := d.tables()
	h, p := d.walk()
	if p < 0 {
		d.truncate(tabs)
		return p
	}
	d.pos = p
	sink(h.Rec[:], h.ID[:])
	return 0
}

// walk decodes the record at d.pos and returns where it is: a version-2
// record through walk2, a version-1 one, which has no template, into
// loose.
func (d *binDecoder) walk() (*Template, int) {
	if d.v2 {
		return d.walk2()
	}
	l := &d.loose
	rec, p := l.begin(), d.pos
	flags := d.data[p]
	if p = d.head(rec, flags, p); p < 0 {
		return nil, p
	}
	v, p := d.uvarint(p)
	if p < 0 {
		return nil, d.in(p, "dynamic id")
	}
	rec.DynID = unzigzag(v)
	if p = d.body(&l.RecordBatch, flags, p, true, maxBinaryOperands); p >= 0 {
		l.seal(rec, flags != 0)
	}
	return &l.Template, p
}

// head decodes the header fields at data[p:] — flags, whose byte the
// caller read, line, function, block and opcode — into rec.
func (d *binDecoder) head(rec *Record, flags byte, p int) int {
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
	return p
}

// body stages in b the operands at data[p:], as many as their count says,
// then the result if flags has it.
func (d *binDecoder) body(b *RecordBatch, flags byte, p int, values bool, limit uint64) int {
	nops, p := d.uvarint(p)
	if p < 0 {
		return d.in(p, "operand count")
	}
	if nops > limit {
		return d.fault(corrupt, p, "operand count", "")
	}
	nops += uint64(flags)
	for i := uint64(0); i < nops && p >= 0; i++ {
		p = d.operand(b.stage(), p, values)
	}
	return p
}

// walk2 decodes a version-2 record: a definition, into loose as it
// decodes, or a reference, written into its Template; then its
// DynID delta and register values. It returns where the record is. A
// one-off definition carries its values and is followed by its DynID
// delta alone. The template's pointer slots and the previous DynID move
// only once the whole record has decoded, so a record cut short leaves no
// trace in them.
func (d *binDecoder) walk2() (*Template, int) {
	p := d.pos
	ref := uint64(d.data[p])
	if ref < 0x80 {
		p++
	} else if ref, p = d.uvarint(p); p < 0 {
		return nil, d.in(p, "template ref")
	}
	h, flags := &d.loose.Template, byte(0)
	var ops []Operand // the operands the values go into
	var prev []uint64 // their template's pointer slots
	if ref == 0 {
		if p, flags = d.define(&d.loose.RecordBatch, d.loose.begin(), p); p < 0 {
			return nil, p
		}
		if id := len(d.tmpls) - 1; flags&2 == 0 {
			h.ID[0], ops, prev = uint32(id), d.loose.staging(), d.prev[d.tmpls[id].prev:]
		}
	} else {
		if ref > uint64(len(d.tmpls)) {
			return nil, d.fault(corrupt, p, "template ref", "beyond table")
		}
		t := &d.tmpls[ref-1]
		if h = t.tpl; h == nil {
			h = d.materialize(uint32(ref - 1))
		}
		ops, prev = h.Ops, d.prev[t.prev:]
	}
	v, p := d.uvarint(p)
	if p < 0 {
		return nil, d.in(p, "dynamic id")
	}
	dyn := d.dyn + unzigzag(v)
	if p = d.values(ops, prev, p); p < 0 {
		return nil, p
	}
	if ref == 0 {
		d.loose.seal(&h.Rec[0], flags&1 != 0)
	}
	h.Rec[0].DynID, d.dyn = dyn, dyn
	j := 0
	for i := range ops {
		if o := &ops[i]; o.IsReg && o.Value.Kind == KindPtr {
			prev[j] = o.Value.bits
			j++
		}
	}
	return h, p
}

// define decodes the template definition at data[p:] into rec's header
// and operands staged in b and, unless it is a one-off, adds the template
// to the table. It returns the definition's flags: bit 0, has result; bit
// 1, one-off.
func (d *binDecoder) define(b *RecordBatch, rec *Record, p int) (int, byte) {
	def, strs0 := p, len(d.strs)
	if p >= len(d.data) {
		return d.fault(truncated, p, "record flags", ""), 0
	}
	flags := d.data[p]
	if flags > 3 {
		return d.fault(corrupt, p+1, "record flags", ""), 0
	}
	oneOff, limit := flags&2 != 0, uint64(maxTemplateOperands)
	if oneOff {
		limit = maxBinaryOperands
	}
	if p = d.head(rec, flags&1, p); p < 0 {
		return p, 0
	}
	if p = d.body(b, flags&1, p, oneOff, limit); p < 0 || oneOff {
		return p, flags
	}
	t := tmpl{def: def, strs0: uint32(strs0), prev: uint32(len(d.prev))}
	if !d.stable {
		t.def = len(d.defs)
		d.defs = append(d.defs, d.data[def:p]...)
	}
	slots := 0
	for _, o := range b.staging() {
		if o.IsReg && o.Value.Kind == KindPtr {
			slots++
		}
	}
	n := len(d.prev)
	d.prev = growTable(d.prev, slots)[:n+slots]
	clear(d.prev[n:])
	d.tmpls = append(growTable(d.tmpls, 1), t)
	return p, flags
}

// growTable makes room for n more entries in one of the tables a
// definition adds to, which a trace of distinct shapes adds to every
// record: it starts at 256 entries, about as many templates as a program
// of a few hundred instructions defines, so a short trace holds a short
// table, and quadruples, so a long one is regrown a few times, not many.
func growTable[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), len(s)+max(n, 3*len(s), 256))
	copy(t, s)
	return t
}

// materialize decodes t's definition again, into a new Template: the
// first reference to a template pays for it, so a template used once —
// as every one of a trace of distinct shapes is — never has one.
func (d *binDecoder) materialize(id uint32) *Template {
	t := &d.tmpls[id]
	r := binDecoder{data: d.defs, strs: d.strs, replay: true, next: int(t.strs0)}
	if d.stable {
		r.data = d.data
	}
	// The definition decoded once already: it cannot fail.
	flags := r.data[t.def]
	var hdr Record
	p := r.head(&hdr, flags, t.def)
	d.loose.Reset()
	r.body(&d.loose.RecordBatch, flags, p, false, maxTemplateOperands)
	t.tpl = d.slabs.newTemplate(&hdr, d.loose.staging(), flags != 0, id)
	return t.tpl
}

// values decodes a version-2 record's register values at data[p:] into
// ops, its template's operands; prev holds the template's pointer slots.
func (d *binDecoder) values(ops []Operand, prev []uint64, p int) int {
	j := 0
	for i := range ops {
		o := &ops[i]
		if !o.IsReg {
			continue
		}
		var v uint64
		switch o.Value.Kind {
		case KindFloat:
			if len(d.data)-p < 8 {
				return d.fault(truncated, p, "float value", "")
			}
			o.Value.bits, p = binary.LittleEndian.Uint64(d.data[p:]), p+8
		case KindPtr:
			if v, p = d.uvarint(p); p < 0 {
				return d.in(p, "pointer value")
			}
			o.Value.bits = prev[j] + uint64(unzigzag(v))
			j++
		default:
			if v, p = d.uvarint(p); p < 0 {
				return d.in(p, "int value")
			}
			o.Value.bits = uint64(unzigzag(v))
		}
	}
	return p
}

// tables is the length of each of the decoder's growing tables: what a
// record that fails rolls back to.
type tables struct{ strs, tmpls, prev, defs int }

func (d *binDecoder) tables() tables {
	return tables{len(d.strs), len(d.tmpls), len(d.prev), len(d.defs)}
}

func (d *binDecoder) truncate(t tables) {
	d.strs, d.tmpls = d.strs[:t.strs], d.tmpls[:t.tmpls]
	d.prev, d.defs = d.prev[:t.prev], d.defs[:t.defs]
}

// ParseBinary parses a complete in-memory ACTB trace, as ParseBytes does
// one whose magic says ACTB; input without the magic fails on the header.
func ParseBinary(data []byte) ([]Record, error) {
	return parse(data, FormatBinary)
}

// presize sizes b for the whole trace past the header at d.pos, before
// any record. Unlike text there is no cheap record count, so it decodes up
// to 64 records on a probe copy of d — its own tables and Templates, d
// untouched — and
// scales their record and operand counts by the share of the record bytes
// they take, plus an eighth: records and arena are then allocated once,
// not regrown logarithmically many times (regrowing pointer-bearing slices
// is pure GC pressure).
func (d *binDecoder) presize(b *RecordBatch) {
	probe := *d
	probe.strs = slices.Clone(d.strs)
	probe.tmpls, probe.prev, probe.defs = slices.Clone(d.tmpls), slices.Clone(d.prev), nil
	probe.slabs, probe.loose = templateSlabs{}, loose{}
	n, nops := 0, 0
	count := func(recs []Record, _ []uint32) { n, nops = n+1, nops+recs[0].NumOperands() }
	for n < 64 && probe.pos < len(d.data) {
		if probe.record(count) < 0 {
			break
		}
	}
	if n == 0 {
		return
	}
	scale := float64(len(d.data)-d.pos) / float64(probe.pos-d.pos) * 9 / 8
	nrec := int(float64(n)*scale) + 64
	b.Recs, b.TemplateIDs = make([]Record, 0, nrec), make([]uint32, 0, nrec)
	b.ops = make([]Operand, 0, int(float64(nops)*scale)+64)
	if d.v2 {
		d.tmpls = make([]tmpl, 0, int(float64(len(probe.tmpls))*scale)+64)
	}
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
