package trace

import "io"

// Batch decoding: the streaming analysis hot path. Reading a trace
// record-at-a-time through Reader.Next costs one or more heap
// allocations per record (a fresh Record, a fresh Ops slice, a fresh
// Result) — three sweeps over a 35k-record trace paid ~366k allocations
// before this file existed. A RecordBatch amortizes that to zero steady
// state: the decoder writes records into a reusable slice and their
// operands into a shared arena, both recycled on every NextBatch call.
//
// Contract: the records of a batch (including their Ops and Result
// storage) are valid only until the next NextBatch call (or Reset) on the
// same batch. Consumers that need a record beyond that must Clone it —
// the same rule the online engine's Observer already lives by.
//
// A RecordBatch is also the decoders' one record assembler: the text
// decoder and the ACTB decoder lay their records out in the batch's arena
// through it, so the layout rule, stated once in seal, holds for both.
// (The interpreter's emitter keeps no batch: each instruction's template
// is laid out the same way and handed on in place.) A record decoded
// field by field is opened, its operands staged one by one, the result
// last, and sealed once all of them are in; a record copied from a
// template's static half goes through AppendTemplate, and its decoder
// writes the values only it carries into the copy. A record that fails,
// or a template that turns out not to match, is taken back with rollback.
// Code outside this package fills a batch through Reset / AppendOperand /
// AppendRecord.

// RecordBatch is reusable storage for batch decoding.
type RecordBatch struct {
	// Recs holds the records of the current batch. Managed by NextBatch
	// and AppendRecord; callers treat it as read-only.
	Recs []Record
	// TemplateIDs, when it is as long as Recs, holds each record's template
	// id: records of one stream with the same id have the same static half
	// — every field but DynID and the values of register operands — and a
	// record with none has NoTemplate. The text decoder, the ACTB version-2
	// decoder and AppendTemplate fill it; the version-1 decoder, which
	// knows no templates, leaves it empty.
	TemplateIDs []uint32

	ops    []Operand // arena backing Recs' Ops and Result storage
	staged int       // ops[staged:] belong to the record under construction
}

// NoTemplate is the template id of a record that has no template: in
// ACTB, a one-off record too wide for one; in text, a block whose shape
// the decoder has not seen before, or one it does not make templates of.
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
	*b.open() = rec
	b.seal(&b.Recs[len(b.Recs)-1], hasResult)
}

// open adds a record to Recs for a decoder to fill field by field: the
// caller sets the header fields of the slot returned, stages the
// operands and seals it. The slot stays put until the next record is
// added.
func (b *RecordBatch) open() *Record {
	b.Recs = extend(b.Recs)
	return &b.Recs[len(b.Recs)-1]
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
	start, end := b.staged, len(b.ops)
	b.staged = end
	var res *Operand
	if hasResult {
		end--
		res = &b.ops[end]
	}
	var ops []Operand
	if end > start {
		// Capacity-clamped so a consumer's append cannot clobber the
		// operands that follow.
		ops = b.ops[start:end:end]
	}
	rec.Ops, rec.Result = ops, res
}

// AppendTemplate adds the record whose header fields are *hdr's and whose
// operands, the result last when hasResult is set, are a copy of ops, in
// one bulk copy, with id, the template's, appended to TemplateIDs: an
// ACTB template reference or a text block its template matches. It
// returns the arena's copy of ops, for the decoder to write the record's
// dynamic values into; the slice is valid until the next append to the
// batch.
func (b *RecordBatch) AppendTemplate(hdr *Record, ops []Operand, hasResult bool, id uint32) []Operand {
	b.TemplateIDs = append(b.TemplateIDs, id)
	start := len(b.ops)
	b.ops = append(b.ops, ops...)
	rec := b.open()
	*rec = *hdr
	b.seal(rec, hasResult)
	return b.ops[start:]
}

// mark is how far a batch is filled at a record boundary.
type mark struct{ recs, ops int }

func (b *RecordBatch) mark() mark { return mark{len(b.Recs), len(b.ops)} }

// rollback takes back every record, template id and operand, staged or
// sealed, added since m.
func (b *RecordBatch) rollback(m mark) {
	b.Recs, b.ops, b.staged = b.Recs[:m.recs], b.ops[:m.ops], m.ops
	if len(b.TemplateIDs) > m.recs {
		b.TemplateIDs = b.TemplateIDs[:m.recs]
	}
}

// home is a template's static half as a decoder keeps it, for
// AppendTemplate to copy: the header but DynID, and the operands, the
// result last, with the value of each non-register operand and the kind
// of every one. The ACTB decoder's templates and the text decoder's have
// one each.
type home struct {
	hdr       Record // no DynID, Ops or Result
	ops       []Operand
	hasResult bool
}

// homeSlabs is where a decoder's homes and their operands are carved.
type homeSlabs struct {
	homes []home
	ops   []Operand
}

// The slab sizes: homes and operands.
const homeSlab, opSlab = 64, 256

// newHome returns a home for the static half of rec, whose operands, the
// result last when hasResult is set, are ops.
func (s *homeSlabs) newHome(rec *Record, ops []Operand, hasResult bool) *home {
	h := &carve(&s.homes, 1, homeSlab)[0]
	*h = home{hdr: *rec, ops: carve(&s.ops, len(ops), opSlab), hasResult: hasResult}
	h.hdr.DynID, h.hdr.Ops, h.hdr.Result = 0, nil, nil
	copy(h.ops, ops)
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

// BatchReader is a Reader that can additionally decode records in
// batches into caller-owned reusable storage; *WindowReader, the reader
// behind every constructor of this package, implements it.
type BatchReader interface {
	Reader
	// NextBatch decodes up to max records into b, recycling its storage,
	// and returns how many were decoded. Zero with a nil error means end
	// of stream.
	NextBatch(b *RecordBatch, max int) (int, error)
}

// DefaultBatchRecords is the batch size ForEachBatch uses: large enough
// to amortize per-batch overhead, small enough that a batch's operand
// arena stays cache-resident.
const DefaultBatchRecords = 512

// ForEachBatch drives rd to the end of its stream in batches, calling fn
// with each batch of records and the stream index of its first record.
// The reader decodes straight into b's recycled storage. A reader that implements io.Closer is closed before
// returning (a close error is reported only when the sweep itself
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
	base := 0
	for {
		n, nerr := rd.NextBatch(b, DefaultBatchRecords)
		if nerr != nil {
			return nerr
		}
		if n == 0 {
			return nil
		}
		if ferr := fn(base, b.Recs[:n]); ferr != nil {
			return ferr
		}
		base += n
	}
}
