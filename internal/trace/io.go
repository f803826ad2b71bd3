package trace

import (
	"bufio"
	"io"
)

// Writer emits instruction blocks to an underlying io.Writer.
// It is not safe for concurrent use; the tracer is single-threaded
// (LLVM-Tracer traces one-rank / one-thread executions, §II-C).
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
	count   int64
}

// NewWriter returns a buffered trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record to the trace. The record is encoded into a
// reused scratch buffer and copied straight into the buffered writer.
func (w *Writer) Write(r *Record) error {
	w.scratch = appendRecord(w.scratch[:0], r)
	w.count++
	_, err := w.bw.Write(w.scratch)
	return err
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.count }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// ParseBytes parses a complete in-memory trace, text or ACTB by magic,
// into records whose Ops and Result share one operand arena. It has no
// record cap; empty input is an empty trace.
func ParseBytes(data []byte) ([]Record, error) {
	return parse(data, DetectFormat(data))
}

// ParseBytesParallel parses a complete in-memory trace exactly as
// ParseBytes does; workers is ignored. The paper's §V-A split of one trace
// across threads is reproduced across traces instead (core.AnalyzeMany).
//
// Deprecated: use ParseBytes. Its only caller is benchmark/layers.go.
func ParseBytesParallel(data []byte, workers int) ([]Record, error) {
	return ParseBytes(data)
}

// parse materialises a whole in-memory trace of format f: the in-memory
// WindowReader read into a batch (Add) whose arena backs every record's
// Ops and Result. The batch is sized up front, text exactly by
// CountRecords (two operands a record), ACTB by binDecoder.presize: one
// grown as it filled would allocate a multiple of its final size.
func parse(data []byte, f Format) ([]Record, error) {
	if len(data) == 0 {
		return nil, nil
	}
	w, err := newBytesReader(data, f)
	if err != nil {
		return nil, err
	}
	var b RecordBatch
	if f == FormatBinary {
		w.bin.presize(&b)
	} else if n := CountRecords(data); n > 0 {
		b.Recs, b.ops, b.TemplateIDs = make([]Record, 0, n), make([]Operand, 0, 2*n), make([]uint32, 0, n)
	}
	if err := w.ReadInto(b.Add); err != nil || len(b.Recs) == 0 {
		return nil, err
	}
	return b.Recs, nil
}

// EncodeAll renders records into the textual trace encoding, sizing the
// buffer from a sample so large traces do not re-grow repeatedly.
func EncodeAll(recs []Record) []byte {
	var b []byte
	for i := range recs {
		if i == 64 {
			// Estimate the final size from the first 64 records.
			est := len(b) / 64 * len(recs)
			if est > cap(b) {
				nb := make([]byte, len(b), est+est/8)
				copy(nb, b)
				b = nb
			}
		}
		b = appendRecord(b, &recs[i])
	}
	return b
}
