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
// Producers that are not decoders of this package — the interpreter's
// emitter — fill a batch through Reset / AppendOperand / AppendRecord, or
// AppendTemplate when a record's static half is prebuilt.

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
	b.ops = append(b.ops, o)
}

// AppendRecord completes the record under construction and adds it to
// Recs: the operands staged since the previous AppendRecord become its
// Ops — except, when hasResult is set, the last of them, which becomes
// its Result. rec carries the header fields only. Arena growth moves the
// backing array but never rewrites a written operand, so records appended
// earlier stay value-correct.
func (b *RecordBatch) AppendRecord(rec Record, hasResult bool) {
	b.seal(&rec, hasResult)
	b.Recs = append(b.Recs, rec)
}

// seal gives rec the operands staged since the previous record.
func (b *RecordBatch) seal(rec *Record, hasResult bool) {
	end := len(b.ops)
	rec.Ops, rec.Result = nil, nil
	if hasResult {
		end--
		rec.Result = &b.ops[end]
	}
	if end > b.staged {
		// Capacity-clamped so a consumer's append cannot clobber the
		// operands that follow.
		rec.Ops = b.ops[b.staged:end:end]
	}
	b.staged = len(b.ops)
}

// AppendTemplate is AppendOperand for each of ops followed by
// AppendRecord(*hdr, hasResult), in one bulk copy, with id, the
// template's, appended to TemplateIDs. It returns the arena's copy of ops,
// for the caller to write the record's dynamic values into; the slice is
// valid until the next append to the batch.
func (b *RecordBatch) AppendTemplate(hdr *Record, ops []Operand, hasResult bool, id uint32) []Operand {
	b.TemplateIDs = append(b.TemplateIDs, id)
	start := len(b.ops)
	b.ops = append(b.ops, ops...)
	n := len(b.Recs)
	if n < cap(b.Recs) {
		b.Recs = b.Recs[:n+1]
	} else {
		b.Recs = append(b.Recs, Record{})
	}
	rec := &b.Recs[n]
	*rec = *hdr
	b.seal(rec, hasResult)
	return b.ops[start:]
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
