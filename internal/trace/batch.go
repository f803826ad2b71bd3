package trace

import "io"

// Decoding hands records on as the tracer does: ReadInto, the analysis
// hot path, calls a Sink with each record as it is decoded. A record a
// template decodes to — an ACTB template reference, or a text block its
// template matches — is its template's home with its DynID and register
// values written in; any other is decoded field by field into the
// decoder's loose record. Nothing is copied or allocated per record, and
// a record is valid only for the call. NextBatch, Next, ParseBytes and
// ForEachBatch are the materialising consumer of the same decode: their
// sink clones each record into a RecordBatch, whose records stay valid
// until its next fill (or Reset).
//
// seal states the one layout rule of a record's operands, which a loose
// record, a home and a batch's records all follow: a record decoded field
// by field has its operands staged one by one, the result last, and is
// sealed once all of them are in. Code outside this package fills a batch
// through Reset / AppendOperand / AppendRecord.

// RecordBatch is reusable storage for batch decoding.
type RecordBatch struct {
	// Recs holds the records of the current batch. Managed by NextBatch
	// and AppendRecord; callers treat it as read-only.
	Recs []Record
	// TemplateIDs, when it is as long as Recs, holds each record's template
	// id: records of one stream with the same id have the same static half
	// — every field but DynID and the values of register operands — and a
	// record with none has NoTemplate, as every record of an ACTB
	// version-1 trace has. NextBatch fills it.
	TemplateIDs []uint32

	ops    []Operand // arena backing Recs' Ops and Result storage
	staged int       // ops[staged:] belong to the record under construction
}

// NoTemplate is the template id of a record that has no template: in
// ACTB, a one-off record too wide for one, or a version-1 record; in text,
// a block whose shape the decoder has not seen before, or one it does not
// make templates of.
const NoTemplate = ^uint32(0)

// Reset empties the batch and recycles its storage for the next fill.
// Every record handed out before the call is invalid after it.
func (b *RecordBatch) Reset() {
	b.Recs = b.Recs[:0]
	b.TemplateIDs = b.TemplateIDs[:0]
	b.ops = b.ops[:0]
	b.staged = 0
}

// AppendOperand stages one operand of the record under construction in
// the batch's arena. Input operands come first, in order; the result, if
// the record has one, is staged last.
func (b *RecordBatch) AppendOperand(o Operand) {
	*b.stage() = o
}

// AppendRecord completes the record under construction and adds it to
// Recs: the operands staged since the previous record become its Ops —
// except, when hasResult is set, the last of them, which becomes its
// Result. rec carries the header fields only.
func (b *RecordBatch) AppendRecord(rec Record, hasResult bool) {
	b.Recs = append(b.Recs, rec)
	b.seal(&b.Recs[len(b.Recs)-1], hasResult)
}

// stage adds an operand to the record under construction and returns it,
// for the caller to set every field of.
func (b *RecordBatch) stage() *Operand {
	b.ops = extend(b.ops)
	return &b.ops[len(b.ops)-1]
}

// staging returns the operands staged for the record under construction.
func (b *RecordBatch) staging() []Operand { return b.ops[b.staged:] }

// seal gives rec, the record under construction, the operands staged for
// it: its inputs and, when hasResult is set, the last of them as its
// Result. This is the one place a record's Ops and Result are pointed
// into the arena, and it runs only once every operand is in, so arena
// growth while a record is staged cannot leave it pointing at a stale
// array. Growth after it moves the backing array but never rewrites a
// written operand, so records sealed earlier stay value-correct.
func (b *RecordBatch) seal(rec *Record, hasResult bool) {
	lay(rec, b.ops[b.staged:], hasResult)
	b.staged = len(b.ops)
}

// lay points rec's Ops at ops, but for the last of them when hasResult is
// set, which becomes its Result: capacity-clamped so a consumer's append
// cannot clobber the operands that follow, and nil when there are none.
func lay(rec *Record, ops []Operand, hasResult bool) {
	rec.Result = nil
	if n := len(ops) - 1; hasResult {
		rec.Result, ops = &ops[n], ops[:n]
	}
	rec.Ops = nil
	if n := len(ops); n > 0 {
		rec.Ops = ops[:n:n]
	}
}

// add is the materialising sink: it clones recs and their ids into the
// batch.
func (b *RecordBatch) add(recs []Record, ids []uint32) {
	for i := range recs {
		b.Recs = extend(b.Recs)
		b.ops = recs[i].CloneInto(&b.Recs[len(b.Recs)-1], b.ops)
	}
	b.staged = len(b.ops)
	b.TemplateIDs = append(b.TemplateIDs, ids...)
}

// Sink takes records as a producer hands them on — the tracer
// (interp.Machine.TraceInto) and the decoders (BatchReader.ReadInto) —
// with each record's template id, ids[i] being recs[i]'s. The records,
// with their Ops and Result storage, are valid only for the call, and a
// sink writes nothing into them: the producer rewrites them in place.
type Sink func(recs []Record, ids []uint32)

// home is a template's static half as a decoder keeps it, laid out as the
// record it decodes to, by seal's rule: the header but DynID, and the
// operands, the result last, with the value of each non-register operand
// and the kind of every one. A record of the template is its home with
// its DynID and register values written in, handed on with id. The ACTB
// decoder's templates and the text decoder's have one each.
type home struct {
	rec [1]Record
	id  [1]uint32
	ops []Operand
}

// loose is a record a decoder decodes field by field, handed on from its
// home as a template's record is: begin opens it, its operands are staged
// in the batch's arena, and seal lays them out.
type loose struct {
	home
	RecordBatch
}

// begin empties l for a record of no template and returns the record.
func (l *loose) begin() *Record {
	l.Reset()
	l.id[0] = NoTemplate
	return &l.rec[0]
}

// homeSlabs is where a decoder's homes and their operands are carved.
type homeSlabs struct {
	homes []home
	ops   []Operand
}

// The slab sizes: homes and operands.
const homeSlab, opSlab = 64, 256

// newHome returns the home of template id, whose static half is rec's:
// rec's header, and ops, its operands, the result last when hasResult is
// set.
func (s *homeSlabs) newHome(rec *Record, ops []Operand, hasResult bool, id uint32) *home {
	h := &carve(&s.homes, 1, homeSlab)[0]
	h.ops = carve(&s.ops, len(ops), opSlab)
	copy(h.ops, ops)
	h.rec[0] = Record{Line: rec.Line, Func: rec.Func, Block: rec.Block, Opcode: rec.Opcode}
	lay(&h.rec[0], h.ops, hasResult)
	h.id[0] = id
	return h
}

// carve returns n elements cut from the front of *slab, which a fresh slab
// of max(n, size) elements replaces when it has not the room.
func carve[T any](slab *[]T, n, size int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, size))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
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

// BatchReader is a Reader that can additionally hand each record to a
// sink in place, or decode records in batches into caller-owned reusable
// storage; *WindowReader, the reader behind every constructor of this
// package, implements it.
type BatchReader interface {
	Reader
	// ReadInto decodes to the end of the stream, or of the bytes fed so
	// far, handing each record and its template id to sink as it is
	// decoded (see Sink).
	ReadInto(sink Sink) error
	// NextBatch decodes up to max records into b, recycling its storage,
	// and returns how many were decoded. Zero with a nil error means end
	// of stream.
	NextBatch(b *RecordBatch, max int) (int, error)
}

// DefaultBatchRecords is the batch size ForEachBatch uses: large enough
// to amortize per-batch overhead, small enough that a batch's operand
// arena stays cache-resident.
const DefaultBatchRecords = 512

// ForEachBatch drives rd to the end of its stream in batches decoded into
// b (NextBatch), calling fn with each batch of records and the stream
// index of its first record. A reader that implements io.Closer is closed
// before returning (a close error is reported only when the sweep itself
// succeeded), and the records passed to fn are only valid for the
// duration of the call. Over a fed reader the sweep ends where the fed
// bytes do.
func ForEachBatch(rd BatchReader, b *RecordBatch, fn func(base int, recs []Record) error) (err error) {
	if c, ok := rd.(io.Closer); ok {
		defer func() {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	for base := 0; ; base += len(b.Recs) {
		if n, err := rd.NextBatch(b, DefaultBatchRecords); n == 0 || err != nil {
			return err
		}
		if err := fn(base, b.Recs); err != nil {
			return err
		}
	}
}
