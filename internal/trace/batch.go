package trace

// Decoding hands records on as the tracer does: ReadInto, the one way
// records leave a Reader, calls a Sink with each record as it is decoded.
// A record a template decodes to — an ACTB template reference, or a text
// block its template matches — is its Template's record with its DynID and
// register values written in; any other is decoded field by field into
// the decoder's loose record, its operands staged one by one, the result
// last, and sealed once all are in. Nothing is copied or allocated per
// record, and a record is valid only for the call; a consumer that keeps
// records reads into a RecordBatch's Add. lay states the one layout rule
// of a record's operands, which a loose record, a Template and a batch's
// records all follow: the inputs, then the result.

// RecordBatch is reusable storage for records kept past their sink call.
type RecordBatch struct {
	// Recs holds the records of the current batch. Managed by Add and
	// AppendRecord; callers treat it as read-only.
	Recs []Record
	// TemplateIDs, when it is as long as Recs, holds each record's template
	// id: records of one stream with the same id have the same static half
	// — every field but DynID and the values of register operands — and a
	// record with none has NoTemplate, as every record of an ACTB
	// version-1 trace has. Add fills it.
	TemplateIDs []uint32

	ops    []Operand // arena backing Recs' Ops and Result storage
	staged int       // ops[staged:] belong to the record under construction
	sweep  *sweep    // ForEachBatch's state, kept for the batch's next sweep
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

// Add is the materialising sink, the one way to keep records past their
// call: it clones recs and their ids onto the end of the batch.
func (b *RecordBatch) Add(recs []Record, ids []uint32) {
	for i := range recs {
		b.Recs = extend(b.Recs)
		b.ops = recs[i].CloneInto(&b.Recs[len(b.Recs)-1], b.ops)
	}
	b.staged = len(b.ops)
	b.TemplateIDs = append(b.TemplateIDs, ids...)
}

// Sink takes records as a producer hands them on — the tracer
// (interp.Machine.TraceInto) and the decoders (Reader.ReadInto) — with
// each record's template id, ids[i] being recs[i]'s. The records, with
// their Ops and Result storage, are valid only for the call, and a sink
// writes nothing into them: the producer rewrites them in place.
type Sink func(recs []Record, ids []uint32)

// Template is the static half of every record of one template, laid out
// as the record itself by lay's rule: Rec's header is all but its DynID,
// and its Ops and Result point into Ops, which holds every operand's
// index, size, kind and name and the value of each non-register one. A
// producer hands on a record of the template as Rec, with its DynID and
// its register values written in, and ID with it. The tracer keeps one
// per instruction, the decoders one per ACTB template or text block
// shape.
type Template struct {
	Rec [1]Record
	ID  [1]uint32
	Ops []Operand
}

// Lay makes t template id, whose record has hdr's header but DynID and
// ops for its operands, the result last when hasResult is set; t keeps
// ops as its Ops.
func (t *Template) Lay(hdr *Record, ops []Operand, hasResult bool, id uint32) {
	t.Rec[0] = Record{Line: hdr.Line, Func: hdr.Func, Block: hdr.Block, Opcode: hdr.Opcode}
	t.ID[0] = id
	t.Ops = ops
	lay(&t.Rec[0], ops, hasResult)
}

// loose is a record a decoder decodes field by field, handed on as a
// template's record is: begin opens it, its operands are staged in the
// batch's arena, and seal lays them out.
type loose struct {
	Template
	RecordBatch
}

// begin empties l for a record of no template and returns the record.
func (l *loose) begin() *Record {
	l.Reset()
	l.ID[0] = NoTemplate
	return &l.Rec[0]
}

// templateSlabs is where a decoder's templates and operands are carved.
type templateSlabs struct {
	tmpls []Template
	ops   []Operand
}

// The slab sizes: templates and operands.
const templateSlab, opSlab = 64, 256

// newTemplate returns template id, whose static half is rec's: rec's
// header, and ops, its operands, the result last when hasResult is set.
func (s *templateSlabs) newTemplate(rec *Record, ops []Operand, hasResult bool, id uint32) *Template {
	t := &carve(&s.tmpls, 1, templateSlab)[0]
	own := carve(&s.ops, len(ops), opSlab)
	copy(own, ops)
	t.Lay(rec, own, hasResult, id)
	return t
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

// DefaultBatchRecords is the batch size ForEachBatch uses: large enough
// to amortize per-batch overhead, small enough that a batch's operand
// arena stays cache-resident.
const DefaultBatchRecords = 512

// ForEachBatch reads rd to the end of its stream, cloning its records
// into b (Add), and calls fn with every DefaultBatchRecords of them, then
// once with the rest, each time with the stream index of the batch's
// first record. The records passed to fn are only valid for the duration
// of the call. An error from fn stops the calls, not the decode, and is
// returned; a decode error drops the batch it cut short. Over a fed
// reader the sweep ends where the fed bytes do.
func ForEachBatch(rd Reader, b *RecordBatch, fn func(base int, recs []Record) error) error {
	if b.sweep == nil {
		b.sweep = new(sweep)
		b.sweep.sink = b.sweep.add
	}
	s := b.sweep
	*s = sweep{b: b, fn: fn, sink: s.sink}
	b.Reset()
	err := rd.ReadInto(s.sink)
	if s.fn = nil; s.err != nil {
		return s.err
	}
	if err != nil || len(b.Recs) == 0 {
		return err
	}
	return fn(s.base, b.Recs)
}

// sweep is one ForEachBatch over b. A batch keeps its sweep, and the
// sweep its sink, so a batch's later sweeps allocate nothing for them.
type sweep struct {
	b    *RecordBatch
	fn   func(base int, recs []Record) error
	base int   // the stream index of b's first record
	err  error // fn's
	sink Sink  // add
}

func (s *sweep) add(recs []Record, ids []uint32) {
	if s.err != nil {
		return
	}
	if s.b.Add(recs, ids); len(s.b.Recs) >= DefaultBatchRecords {
		s.err = s.fn(s.base, s.b.Recs)
		s.base += len(s.b.Recs)
		s.b.Reset()
	}
}
