package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// binDecoder is the one ACTB decoder: direct slice indexing over data (a
// whole trace, or the window of a stream that starts at offset base), and
// operand storage batched in an arena like the text decoder's.
type binDecoder struct {
	data []byte
	pos  int
	base int64 // stream offset of data[0], for error messages
	strs []string
	ops  []Operand
}

func (d *binDecoder) corrupt(what string) error {
	return fmt.Errorf("trace: binary trace corrupt at byte offset %d (%s)", d.base+int64(d.pos), what)
}

// truncated reports a field that runs past the end of data. It is the one
// failure more bytes can cure: the stream reader refills and retries on
// it, and at the true end of a trace it is the truncation error.
func (d *binDecoder) truncated(what string) error {
	return fmt.Errorf("trace: binary trace truncated at byte offset %d (%s): %w", d.base+int64(d.pos), what, io.ErrUnexpectedEOF)
}

func (d *binDecoder) uvarint(what string) (uint64, error) {
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

func (d *binDecoder) varint(what string) (int64, error) {
	v, err := d.uvarint(what)
	return int64(v>>1) ^ -int64(v&1), err
}

func (d *binDecoder) str(what string) (string, error) {
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

func (d *binDecoder) operand(o *Operand) error {
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

func (d *binDecoder) header() error {
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
func (d *binDecoder) record(rec *Record, filter func(opcode int) bool) error {
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

// ParseBinary parses a complete in-memory binary trace.
func ParseBinary(data []byte) ([]Record, error) {
	if len(data) == 0 {
		return nil, nil
	}
	// The string table is pre-seeded with "" (ref 1), mirroring the writer.
	d := &binDecoder{data: data, strs: append(make([]string, 0, 64), "")}
	if err := d.header(); err != nil {
		return nil, err
	}
	var recs []Record
	for d.pos < len(data) {
		if len(recs) == 64 && d.pos > 0 {
			// Unlike the text format there is no cheap record count, so
			// estimate the totals from the first 64 records and grow the
			// record slice and operand arena once instead of
			// logarithmically many times (regrowth of pointer-bearing
			// slices is pure GC pressure). Already-flushed Ops/Result
			// aliases keep pointing at the old arena, whose contents never
			// change.
			frac := float64(len(data)) / float64(d.pos)
			if est := int(float64(len(recs))*frac*9/8) + 64; est > cap(recs) {
				nr := make([]Record, len(recs), est)
				copy(nr, recs)
				recs = nr
			}
			if est := int(float64(len(d.ops))*frac*9/8) + 64; est > cap(d.ops) {
				no := make([]Operand, len(d.ops), est)
				copy(no, d.ops)
				d.ops = no
			}
		}
		var rec Record
		if err := d.record(&rec, nil); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
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
