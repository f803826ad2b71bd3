package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// Reader is the streaming side of a trace encoding; *Scanner (text) and
// *BinaryScanner both implement it.
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
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Value.Float))
	case KindPtr:
		b = appendUvarint(b, o.Value.Addr)
	default:
		b = appendVarint(b, o.Value.Int)
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

// BinaryScanner reads records one at a time from a binary trace stream.
type BinaryScanner struct {
	br      *bufio.Reader
	strs    []string
	opNames map[int]string // the stream's self-description header
	started bool
	done    bool
	off     int64
	nextFromBatch
}

// NewBinaryScanner returns a streaming binary trace reader. The header is
// validated on the first Next call.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{br: bufio.NewReaderSize(r, 1<<16), strs: []string{""}}
}

// OpcodeTable returns the opcode number -> mnemonic mapping carried by
// the stream's self-description header (nil before the first record is
// read).
func (sc *BinaryScanner) OpcodeTable() map[int]string { return sc.opNames }

func (sc *BinaryScanner) corrupt(what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: binary stream corrupt at byte offset %d (%s): %w", sc.off, what, err)
}

func (sc *BinaryScanner) readByte() (byte, error) {
	c, err := sc.br.ReadByte()
	if err == nil {
		sc.off++
	}
	return c, err
}

func (sc *BinaryScanner) readUvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(byteCounter{sc})
	if err != nil {
		return 0, sc.corrupt(what, err)
	}
	return v, nil
}

func (sc *BinaryScanner) readVarint(what string) (int64, error) {
	v, err := sc.readUvarint(what)
	if err != nil {
		return 0, err
	}
	return int64(v>>1) ^ -int64(v&1), nil
}

// byteCounter adapts the scanner for binary.ReadUvarint while keeping the
// offset accurate.
type byteCounter struct{ sc *BinaryScanner }

func (bc byteCounter) ReadByte() (byte, error) { return bc.sc.readByte() }

func (sc *BinaryScanner) readFull(b []byte, what string) error {
	n, err := io.ReadFull(sc.br, b)
	sc.off += int64(n)
	if err != nil {
		return sc.corrupt(what, err)
	}
	return nil
}

const maxBinaryString = 1 << 24 // sanity cap against corrupt length fields

func (sc *BinaryScanner) readString(what string) (string, error) {
	ref, err := sc.readUvarint(what)
	if err != nil {
		return "", err
	}
	if ref != 0 {
		if ref > uint64(len(sc.strs)) {
			return "", sc.corrupt(what, fmt.Errorf("string ref %d beyond table of %d", ref, len(sc.strs)))
		}
		return sc.strs[ref-1], nil
	}
	n, err := sc.readUvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxBinaryString {
		return "", sc.corrupt(what, fmt.Errorf("string length %d exceeds %d cap", n, maxBinaryString))
	}
	b := make([]byte, n)
	if err := sc.readFull(b, what); err != nil {
		return "", err
	}
	s := string(b)
	sc.strs = append(sc.strs, s)
	return s, nil
}

func (sc *BinaryScanner) readHeader() error {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(sc.br, magic); err != nil {
		if err == io.EOF {
			// A completely empty stream is an empty trace.
			sc.done = true
			return nil
		}
		return sc.corrupt("magic", err)
	}
	sc.off += int64(len(magic))
	if !bytes.Equal(magic, binaryMagic) {
		return fmt.Errorf("trace: bad binary magic %q (want %q)", magic, binaryMagic)
	}
	ver, err := sc.readByte()
	if err != nil {
		return sc.corrupt("version", err)
	}
	if ver != binaryVersion {
		return fmt.Errorf("trace: unsupported binary trace version %d (want %d)", ver, binaryVersion)
	}
	n, err := sc.readUvarint("opcode table size")
	if err != nil {
		return err
	}
	if n > 4096 {
		return sc.corrupt("opcode table", fmt.Errorf("%d entries", n))
	}
	sc.opNames = make(map[int]string, n)
	for i := uint64(0); i < n; i++ {
		op, err := sc.readUvarint("opcode table entry")
		if err != nil {
			return err
		}
		ln, err := sc.readUvarint("opcode table entry")
		if err != nil {
			return err
		}
		if ln > maxBinaryString {
			return sc.corrupt("opcode table entry", fmt.Errorf("name length %d", ln))
		}
		name := make([]byte, ln)
		if err := sc.readFull(name, "opcode table entry"); err != nil {
			return err
		}
		sc.opNames[int(op)] = string(name)
	}
	return nil
}

func (sc *BinaryScanner) readOperand(o *Operand) error {
	meta, err := sc.readByte()
	if err != nil {
		return sc.corrupt("operand meta", err)
	}
	kind := ValueKind(meta & 3)
	if kind > KindPtr {
		return sc.corrupt("operand meta", fmt.Errorf("bad value kind %d", kind))
	}
	o.IsReg = meta&4 != 0
	idx, err := sc.readVarint("operand index")
	if err != nil {
		return err
	}
	o.Index = int(idx)
	size, err := sc.readUvarint("operand size")
	if err != nil {
		return err
	}
	o.Size = int(size)
	switch kind {
	case KindFloat:
		var raw [8]byte
		if err := sc.readFull(raw[:], "float value"); err != nil {
			return err
		}
		o.Value = FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
	case KindPtr:
		a, err := sc.readUvarint("pointer value")
		if err != nil {
			return err
		}
		o.Value = PtrValue(a)
	default:
		v, err := sc.readVarint("int value")
		if err != nil {
			return err
		}
		o.Value = IntValue(v)
	}
	o.Name, err = sc.readString("operand name")
	return err
}

const maxBinaryOperands = 1 << 20 // sanity cap against corrupt counts

// Next returns the next record, or (nil, nil) at end of stream.
func (sc *BinaryScanner) Next() (*Record, error) { return sc.next(sc) }

// NextBatch decodes up to max records into b, recycling its storage.
// Records whose opcode b.Filter rejects are decoded header-only (their
// operands are still walked to keep the stateful string table in sync,
// but not stored).
func (sc *BinaryScanner) NextBatch(b *RecordBatch, max int) (int, error) {
	b.Reset()
	if !sc.started {
		sc.started = true
		if err := sc.readHeader(); err != nil {
			sc.done = true
			return 0, err
		}
	}
	for len(b.Recs) < max && !sc.done {
		flags, err := sc.readByte()
		if err == io.EOF {
			sc.done = true
			break
		}
		if err != nil {
			return 0, sc.corrupt("record flags", err)
		}
		if flags > 1 {
			return 0, sc.corrupt("record flags", fmt.Errorf("unknown flags %#x", flags))
		}
		var rec Record
		line, err := sc.readVarint("line")
		if err != nil {
			return 0, err
		}
		rec.Line = int(line)
		if rec.Func, err = sc.readString("function name"); err != nil {
			return 0, err
		}
		if rec.Block, err = sc.readString("block label"); err != nil {
			return 0, err
		}
		op, err := sc.readUvarint("opcode")
		if err != nil {
			return 0, err
		}
		rec.Opcode = int(op)
		if rec.DynID, err = sc.readVarint("dynamic id"); err != nil {
			return 0, err
		}
		nops, err := sc.readUvarint("operand count")
		if err != nil {
			return 0, err
		}
		if nops > maxBinaryOperands {
			return 0, sc.corrupt("operand count", fmt.Errorf("%d operands", nops))
		}
		store := b.wantOps(rec.Opcode)
		hasRes := flags&1 != 0
		if hasRes {
			nops++ // the result follows the inputs, encoded like them
		}
		for i := uint64(0); i < nops; i++ {
			var o Operand
			if err := sc.readOperand(&o); err != nil {
				return 0, err
			}
			if store {
				b.AppendOperand(o)
			}
		}
		b.AppendRecord(rec, store && hasRes)
	}
	return len(b.Recs), nil
}

// binDecoder is the in-memory binary decode fast path: direct slice
// indexing instead of buffered reads, and operand storage batched in an
// arena like the text decoder's.
type binDecoder struct {
	data []byte
	pos  int
	strs []string
	ops  []Operand
}

func (d *binDecoder) corrupt(what string) error {
	return fmt.Errorf("trace: binary trace corrupt at byte offset %d (%s)", d.pos, what)
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
	if n <= 0 {
		return 0, d.corrupt(what)
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
	if n > maxBinaryString || uint64(len(d.data)-d.pos) < n {
		return "", d.corrupt(what + ": bad string length")
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	d.strs = append(d.strs, s)
	return s, nil
}

func (d *binDecoder) operand(o *Operand) error {
	if d.pos >= len(d.data) {
		return d.corrupt("operand meta")
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
	switch kind {
	case KindFloat:
		if len(d.data)-d.pos < 8 {
			return d.corrupt("float value")
		}
		o.Value = FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:])))
		d.pos += 8
	case KindPtr:
		a, err := d.uvarint("pointer value")
		if err != nil {
			return err
		}
		o.Value = PtrValue(a)
	default:
		v, err := d.varint("int value")
		if err != nil {
			return err
		}
		o.Value = IntValue(v)
	}
	o.Name, err = d.str("operand name")
	return err
}

func (d *binDecoder) header() error {
	if !bytes.HasPrefix(d.data, binaryMagic) {
		return fmt.Errorf("trace: bad binary magic (want %q)", binaryMagic)
	}
	d.pos = len(binaryMagic)
	if d.pos >= len(d.data) {
		return d.corrupt("version")
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
		if ln > maxBinaryString || uint64(len(d.data)-d.pos) < ln {
			return d.corrupt("opcode table entry")
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

// NewAutoReader sniffs the stream's format and returns the matching
// streaming reader. Text is assumed when the stream is shorter than the
// binary magic.
func NewAutoReader(r io.Reader) (Reader, Format, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return nil, 0, err
	}
	if bytes.Equal(head, binaryMagic) {
		return NewBinaryScanner(br), FormatBinary, nil
	}
	return NewScanner(br), FormatText, nil
}
