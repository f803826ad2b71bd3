package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The reference ACTB version-2 decoder: field at a time, every field
// returning (value, error) and moving d.pos itself, like the version-1
// reference (reference_test.go) it extends. A template is kept as the
// header and operands its definition decoded to, and a pointer slot's
// previous value in the template itself; a record is a copy of them plus
// its values. FuzzParseTrace and TestBinaryDecodeMatchesReference hold the
// production decoder to it through sameACTBDecode.

type refTemplate struct {
	hdr       Record
	ops       []Operand // inputs, then the result
	hasResult bool
	prev      []uint64 // one per register operand holding a pointer
}

type refV2Decoder struct {
	refBinDecoder
	tmpls []*refTemplate
	dyn   int64
}

func (d *refV2Decoder) header() error {
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
	if v := d.data[d.pos]; v != templateVersion {
		return fmt.Errorf("trace: unsupported binary trace version %d (want 1 or 2)", v)
	}
	// Past the version the header is version 1's: the opcode table.
	d1 := d.refBinDecoder
	d1.data = append(append(append([]byte(nil), d.data[:d.pos]...), binaryVersion), d.data[d.pos+1:]...)
	if err := d1.header(); err != nil {
		return err
	}
	d.pos = d1.pos
	return nil
}

// defOperand decodes one operand of a definition: version 1's layout,
// with no value for a register operand unless values is set.
func (d *refV2Decoder) defOperand(o *Operand, values bool) error {
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
	o.Value = Value{Kind: kind}
	if values || !o.IsReg {
		switch kind {
		case KindFloat:
			if len(d.data)-d.pos < 8 {
				return d.truncated("float value")
			}
			o.Value.bits = binary.LittleEndian.Uint64(d.data[d.pos:])
			d.pos += 8
		case KindPtr:
			o.Value.bits, err = d.uvarint("pointer value")
		default:
			var v int64
			v, err = d.varint("int value")
			o.Value.bits = uint64(v)
		}
		if err != nil {
			return err
		}
	}
	o.Name, err = d.str("operand name")
	return err
}

// define decodes a template definition, or a one-off one (oneOff set).
func (d *refV2Decoder) define() (t *refTemplate, oneOff bool, err error) {
	if d.pos >= len(d.data) {
		return nil, false, d.truncated("record flags")
	}
	flags := d.data[d.pos]
	d.pos++
	if flags > 3 {
		return nil, false, d.corrupt("record flags")
	}
	oneOff = flags&2 != 0
	t = &refTemplate{hasResult: flags&1 == 1}
	line, err := d.varint("line")
	if err != nil {
		return nil, false, err
	}
	t.hdr.Line = int(line)
	if t.hdr.Func, err = d.str("function name"); err != nil {
		return nil, false, err
	}
	if t.hdr.Block, err = d.str("block label"); err != nil {
		return nil, false, err
	}
	op, err := d.uvarint("opcode")
	if err != nil {
		return nil, false, err
	}
	t.hdr.Opcode = int(op)
	nops, err := d.uvarint("operand count")
	if err != nil {
		return nil, false, err
	}
	if nops > maxBinaryOperands || !oneOff && nops > 64 {
		return nil, false, d.corrupt("operand count")
	}
	if t.hasResult {
		nops++
	}
	for i := uint64(0); i < nops; i++ {
		var o Operand
		if err := d.defOperand(&o, oneOff); err != nil {
			return nil, false, err
		}
		t.ops = append(t.ops, o)
		if o.IsReg && o.Value.Kind == KindPtr {
			t.prev = append(t.prev, 0)
		}
	}
	return t, oneOff, nil
}

func (d *refV2Decoder) record(rec *Record) error {
	ref, err := d.uvarint("template ref")
	if err != nil {
		return err
	}
	var t *refTemplate
	if ref == 0 {
		var oneOff bool
		if t, oneOff, err = d.define(); err != nil {
			return err
		}
		if oneOff {
			delta, err := d.varint("dynamic id")
			if err != nil {
				return err
			}
			d.dyn += delta
			*rec = t.hdr
			rec.DynID = d.dyn
			n := len(t.ops)
			if t.hasResult {
				n--
				rec.Result = &t.ops[n]
			}
			if n > 0 {
				rec.Ops = t.ops[:n:n]
			}
			return nil
		}
		d.tmpls = append(d.tmpls, t)
	} else {
		if ref > uint64(len(d.tmpls)) {
			return d.corrupt("template ref: beyond table")
		}
		t = d.tmpls[ref-1]
	}
	delta, err := d.varint("dynamic id")
	if err != nil {
		return err
	}
	ops := append([]Operand(nil), t.ops...)
	next := append([]uint64(nil), t.prev...)
	j := 0
	for i := range ops {
		o := &ops[i]
		if !o.IsReg {
			continue
		}
		switch o.Value.Kind {
		case KindFloat:
			if len(d.data)-d.pos < 8 {
				return d.truncated("float value")
			}
			o.Value.bits = binary.LittleEndian.Uint64(d.data[d.pos:])
			d.pos += 8
		case KindPtr:
			v, err := d.varint("pointer value")
			if err != nil {
				return err
			}
			o.Value.bits = t.prev[j] + uint64(v)
			next[j] = o.Value.bits
			j++
		default:
			v, err := d.varint("int value")
			if err != nil {
				return err
			}
			o.Value.bits = uint64(v)
		}
	}
	d.dyn += delta
	t.prev = next
	*rec = t.hdr
	rec.DynID = d.dyn
	n := len(ops)
	if t.hasResult {
		n--
		rec.Result = &ops[n]
	}
	if n > 0 {
		rec.Ops = ops[:n:n]
	}
	return nil
}

// referenceParseV2 decodes a complete in-memory version-2 trace with the
// reference decoder.
func referenceParseV2(data []byte) ([]Record, error) {
	d := &refV2Decoder{refBinDecoder: refBinDecoder{data: data, strs: []string{""}}}
	if err := d.header(); err != nil {
		return nil, err
	}
	var recs []Record
	for d.pos < len(data) {
		var rec Record
		if err := d.record(&rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// sameACTBDecode holds a decode of ACTB bytes to the reference decoder of
// the version they announce: version 1, or bytes too short to announce
// one, to sameBinaryDecode; any other version to the version-2 reference.
func sameACTBDecode(data []byte, got []Record, gerr error) error {
	if len(data) <= len(binaryMagic) || !bytes.HasPrefix(data, binaryMagic) || data[len(binaryMagic)] == binaryVersion {
		return sameBinaryDecode(data, got, gerr)
	}
	want, werr := referenceParseV2(data)
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

// encodeBinaryV1 writes records in the legacy version-1 layout, as the
// writer did before templates, so the tests can make version-1 traces.
func encodeBinaryV1(recs []Record) []byte {
	strs := map[string]uint64{"": 1}
	appendString := func(b []byte, s string) []byte {
		if ref, ok := strs[s]; ok {
			return appendUvarint(b, ref)
		}
		strs[s] = uint64(len(strs) + 1)
		b = appendUvarint(b, 0)
		b = appendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	appendOp := func(b []byte, o *Operand) []byte {
		b = append(b, operandMeta(o))
		b = appendVarint(b, int64(o.Index))
		b = appendUvarint(b, uint64(o.Size))
		b = appendValue(b, o.Value)
		return appendString(b, o.Name)
	}
	var hdr bytes.Buffer
	w := NewBinaryWriter(&hdr)
	_ = w.Flush()
	b := hdr.Bytes()
	b[len(binaryMagic)] = binaryVersion // the opcode table is the same
	for i := range recs {
		r := &recs[i]
		var flags byte
		if r.Result != nil {
			flags = 1
		}
		b = append(b, flags)
		b = appendVarint(b, int64(r.Line))
		b = appendString(b, r.Func)
		b = appendString(b, r.Block)
		b = appendUvarint(b, uint64(r.Opcode))
		b = appendVarint(b, r.DynID)
		b = appendUvarint(b, uint64(len(r.Ops)))
		for k := range r.Ops {
			b = appendOp(b, &r.Ops[k])
		}
		if r.Result != nil {
			b = appendOp(b, r.Result)
		}
	}
	return b
}

// v1Fixture is the version-1 ACTB trace of the IS port at scale 0, written
// by the version-1 writer before version 2 existed.
const v1Fixture = "testdata/is_v1.actb"

// repeatedRecords is a trace whose templates are used again and again,
// with pointers that walk forwards and back, so a cut lands inside a
// reference, a definition and a delta alike.
func repeatedRecords(n int) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		p := uint64(0x7ffc0000) + uint64(i%7)*8 - uint64(i%3)*24
		recs = append(recs,
			Record{Line: 5, Func: "main", Block: "for.body", Opcode: OpLoad, DynID: int64(3 * i),
				Ops:    []Operand{{Index: 1, Size: 64, Value: PtrValue(p), IsReg: true, Name: "a"}},
				Result: &Operand{Size: 64, Value: FloatValue(float64(i) / 3), IsReg: true, Name: "4"}},
			Record{Line: 5, Func: "main", Block: "for.body", Opcode: OpFAdd, DynID: int64(3*i + 1),
				Ops: []Operand{{Index: 1, Size: 64, Value: FloatValue(float64(i) / 3), IsReg: true, Name: "4"},
					{Index: 2, Size: 64, Value: FloatValue(0.5), Name: ""}},
				Result: &Operand{Size: 64, Value: FloatValue(float64(i)/3 + 0.5), IsReg: true, Name: "5"}},
			Record{Line: 6 + i%2, Func: "main", Block: "for.body", Opcode: OpStore, DynID: int64(3*i + 2),
				Ops: []Operand{{Index: 1, Size: 64, Value: IntValue(int64(i) - 40), IsReg: true, Name: "5"},
					{Index: 2, Size: 64, Value: PtrValue(p + 0x1000), IsReg: true, Name: "b"}}},
		)
	}
	return recs
}

// TestV2MatchesReferenceAndRoundTrips: the version-2 encodings of several
// traces decode to what the reference decodes them to and to the records
// encoded, and encode again to the same bytes; the version-1 encodings of
// the same traces, and the fixture, decode as their reference says.
func TestV2MatchesReferenceAndRoundTrips(t *testing.T) {
	traces := map[string][]Record{
		"sample":   sampleRecords(),
		"varint":   varintRecords(),
		"repeated": repeatedRecords(200),
		"random":   randomRecords(rand.New(rand.NewSource(7)), 500),
		"wide":     wideRecords(),
	}
	for name, recs := range traces {
		for version, data := range map[int][]byte{1: encodeBinaryV1(recs), 2: EncodeBinary(recs)} {
			got, err := ParseBinary(data)
			if err := sameACTBDecode(data, got, err); err != nil {
				t.Fatalf("%s v%d: %v", name, version, err)
			}
			if err != nil || !equalModuloNaN(got, recs) {
				t.Fatalf("%s v%d: decode = %d records, %v; want the %d encoded", name, version, len(got), err, len(recs))
			}
			if again := EncodeBinary(got); !bytes.Equal(again, EncodeBinary(recs)) {
				t.Fatalf("%s v%d: decoded and encoded again, the version-2 bytes differ", name, version)
			}
		}
	}
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBinary(data)
	if err := sameACTBDecode(data, got, err); err != nil || data[len(binaryMagic)] != binaryVersion {
		t.Fatalf("fixture (version %d): %v", data[len(binaryMagic)], err)
	}
	v2 := EncodeBinary(got)
	back, err := ParseBinary(v2)
	if err != nil || !equalModuloNaN(back, got) || !bytes.Equal(EncodeBinary(back), v2) {
		t.Fatalf("fixture in version 2: %d records, %v; want the fixture's %d, byte-identical again", len(back), err, len(got))
	}
	t.Logf("fixture: %d records, version 1 %.1f B/record, version 2 %.1f B/record",
		len(got), float64(len(data))/float64(len(got)), float64(len(v2))/float64(len(got)))
}

// TestV2CutAnywhere: a version-2 trace fed in two pieces, cut at every
// byte, and read as a stream in one-byte Reads, decodes to the records and
// template ids of the same bytes in memory: a record the cut runs through
// is decoded again from its start with the template table, the pointer
// slots and the previous DynID as they were before it.
func TestV2CutAnywhere(t *testing.T) {
	data := EncodeBinary(append(repeatedRecords(12), sampleRecords()...))
	want, wantIDs := drainIDs(t, mustBytesReader(t, data))
	if len(wantIDs) != len(want) {
		t.Fatalf("%d template ids for %d records", len(wantIDs), len(want))
	}
	for cut := 1; cut < len(data); cut++ {
		got, ids := drainIDs(t, newFedReader(data, cut, len(data)))
		if !equalModuloNaN(got, want) || !reflect.DeepEqual(ids, wantIDs) {
			t.Fatalf("cut at %d: %d records, ids %v; want %d, %v", cut, len(got), ids, len(want), wantIDs)
		}
	}
	got, ids := drainIDs(t, newStreamReader(newChunkReader(data, 1), FormatBinary))
	if !equalModuloNaN(got, want) || !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("chunked stream: %d records, ids %v; want %d, %v", len(got), ids, len(want), wantIDs)
	}
}

func mustBytesReader(t *testing.T, data []byte) Reader {
	t.Helper()
	rd, _, err := NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// drainIDs reads rd to its end, cloning the records and collecting their
// template ids.
func drainIDs(t *testing.T, rd Reader) ([]Record, []uint32) {
	t.Helper()
	var b RecordBatch
	if err := rd.ReadInto(b.Add); err != nil {
		t.Fatal(err)
	}
	if len(b.TemplateIDs) != len(b.Recs) {
		t.Fatalf("%d records have %d template ids", len(b.Recs), len(b.TemplateIDs))
	}
	return b.Recs, b.TemplateIDs
}

// TestV2TemplateIDsNameStaticHalves: in a version-2 decode, records with
// one template id have one static half, and different ids different ones
// (the writer keys templates by the whole static half).
func TestV2TemplateIDsNameStaticHalves(t *testing.T) {
	recs := append(repeatedRecords(50), randomRecords(rand.New(rand.NewSource(9)), 300)...)
	got, ids := drainIDs(t, mustBytesReader(t, EncodeBinary(recs)))
	if err := sameStaticHalves(got, ids); err != nil {
		t.Fatal(err)
	}
	halves := map[string]uint32{}
	for i := range got {
		key := string(appendKey(nil, &got[i]))
		if id, ok := halves[key]; ok && id != ids[i] {
			t.Fatalf("record %d: one static half under ids %d and %d", i, id, ids[i])
		}
		halves[key] = ids[i]
	}
}

// staticHalf is a record with its DynID and register values zeroed: what
// one template id stands for.
func staticHalf(r *Record) string {
	c := r.Clone()
	c.DynID = 0
	for i := range c.Ops {
		if c.Ops[i].IsReg {
			c.Ops[i].Value = Value{}
		}
	}
	if c.Result != nil && c.Result.IsReg {
		c.Result.Value = Value{}
	}
	return fmt.Sprintf("%d %s", len(c.Ops), c.String())
}

// sameStaticHalves reports the first record whose static half differs
// from that of the first record with its template id. Records without a
// template (NoTemplate) share no id.
func sameStaticHalves(recs []Record, ids []uint32) error {
	if len(ids) != len(recs) {
		return fmt.Errorf("%d template ids for %d records", len(ids), len(recs))
	}
	first := map[uint32]string{}
	for i := range recs {
		if ids[i] == NoTemplate {
			continue
		}
		h := staticHalf(&recs[i])
		if f, ok := first[ids[i]]; !ok {
			first[ids[i]] = h
		} else if f != h {
			return fmt.Errorf("record %d: template %d is %q, and %q before", i, ids[i], h, f)
		}
	}
	return nil
}

// wideRecords has records of 64 input operands, which fit a template, and
// of 65 and 200, which are one-off records, between ordinary ones.
func wideRecords() []Record {
	var recs []Record
	for i, n := range []int{64, 65, 200, 65, 64} {
		r := Record{Line: 9, Func: "main", Block: "call", Opcode: OpCall, DynID: int64(10 * i)}
		for k := 0; k < n; k++ {
			r.Ops = append(r.Ops, Operand{Index: k + 1, Size: 64, Value: PtrValue(uint64(0x1000 + 8*k + i)), IsReg: k%2 == 0, Name: fmt.Sprint("a", k%3)})
		}
		r.Result = &Operand{Size: 64, Value: IntValue(int64(i)), IsReg: true, Name: "r"}
		recs = append(recs, r)
		recs = append(recs, sampleRecords()[i%5])
	}
	return recs
}

// TestV2WideRecords: a record of more input operands than a template may
// have is written as a one-off definition, with template id NoTemplate,
// and a kept template of more is corrupt — so one reference never decodes
// to more than 64 input operands and a result.
func TestV2WideRecords(t *testing.T) {
	recs := wideRecords()
	got, ids := drainIDs(t, mustBytesReader(t, EncodeBinary(recs)))
	if !equalModuloNaN(got, recs) {
		t.Fatalf("wide records do not round-trip")
	}
	for i := range got {
		if wide := len(got[i].Ops) > 64; wide != (ids[i] == NoTemplate) {
			t.Errorf("record %d with %d operands has template id %d", i, len(got[i].Ops), ids[i])
		}
	}
	// The 65-operand record's one-off definition, flagged as a template.
	data := EncodeBinary(recs[:4])
	at := bytes.LastIndex(data, []byte{0, 3, 18}) // ref 0, flags 3, line 9
	if at < 0 {
		t.Fatal("no one-off definition in the encoding")
	}
	data[at+1] = 1
	_, err := ParseBinary(data)
	if err := sameACTBDecode(data, nil, err); err != nil {
		t.Fatal(err)
	}
	if err == nil || !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "operand count") {
		t.Fatalf("a 65-operand template: %v, want an operand count error", err)
	}
}
