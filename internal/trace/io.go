package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
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

// ParseBytes parses a complete in-memory trace serially on the
// allocation-free manual path: no line-length cap, field scanning without
// intermediate strings, interned identifiers, and arena-backed operands.
func ParseBytes(data []byte) ([]Record, error) {
	if DetectFormat(data) == FormatBinary {
		return ParseBinary(data)
	}
	n := CountRecords(data)
	if n == 0 {
		// Preserve the old behavior for garbage without any header line:
		// non-empty non-block input is an error, empty input is an empty
		// trace.
		d := newDecoder()
		return d.decodeText(data, nil)
	}
	d := newDecoder()
	d.ops = make([]Operand, 0, 2*n)
	return d.decodeText(data, make([]Record, 0, n))
}

// splitChunks partitions data into at most n chunks whose boundaries fall on
// block-header lines (lines beginning with "0,"), so no instruction block is
// split across chunks. This is the same strategy as the paper's §V-A
// OpenMP optimization: the master partitions the input file stream into
// sub-file-streams without breaking instruction blocks.
func splitChunks(data []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	var chunks [][]byte
	start := 0
	approx := len(data)/n + 1
	for start < len(data) {
		end := start + approx
		if end >= len(data) {
			chunks = append(chunks, data[start:])
			break
		}
		// Advance end to the next block boundary: a newline followed by "0,".
		for {
			i := bytes.IndexByte(data[end:], '\n')
			if i < 0 {
				end = len(data)
				break
			}
			end += i + 1
			if end >= len(data) || bytes.HasPrefix(data[end:], []byte("0,")) {
				break
			}
		}
		chunks = append(chunks, data[start:end])
		start = end
	}
	return chunks
}

// parallelParseMinBytes is the input size below which ParseBytesParallel
// falls back to the serial decoder: goroutine startup, per-chunk decoder
// state (interner, arena), and the per-chunk pre-count cost more than
// they save on small traces, where serial parse already runs in
// single-digit milliseconds. A variable rather than a constant so tests
// can force the chunked path on small inputs.
var parallelParseMinBytes = 4 << 20

// ParseBytesParallel parses a complete in-memory trace using the given
// number of worker goroutines (0 means GOMAXPROCS). Chunk boundaries are
// aligned to instruction blocks; the result preserves trace order. Each
// chunk's record count is pre-counted so workers decode directly into
// their slice of one pre-sized result — there is no final gather copy.
// Binary traces (which are not line-splittable) fall back to the serial
// binary decoder, which is faster than parallel text parsing anyway;
// traces below parallelParseMinBytes fall back to the serial text
// decoder, which beats the fan-out overhead at that size.
func ParseBytesParallel(data []byte, workers int) ([]Record, error) {
	if DetectFormat(data) == FormatBinary {
		return ParseBinary(data)
	}
	if len(data) < parallelParseMinBytes {
		return ParseBytes(data)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := splitChunks(data, workers)
	if len(chunks) <= 1 {
		return ParseBytes(data)
	}
	offs := make([]int, len(chunks)+1)
	for i, c := range chunks {
		offs[i+1] = offs[i] + CountRecords(c)
	}
	out := make([]Record, offs[len(chunks)])
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c []byte) {
			defer wg.Done()
			d := newDecoder()
			lo, hi := offs[i], offs[i+1]
			d.ops = make([]Operand, 0, 2*(hi-lo))
			got, err := d.decodeText(c, out[lo:lo:hi])
			if err == nil && len(got) != hi-lo {
				err = fmt.Errorf("trace: chunk %d decoded %d records, expected %d", i, len(got), hi-lo)
			}
			errs[i] = err
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stats summarizes a trace.
type Stats struct {
	Records   int64
	Bytes     int64
	ByOpcode  map[int]int64
	Functions map[string]int64
}

// ComputeStats gathers record counts by opcode and function.
func ComputeStats(recs []Record) Stats {
	st := Stats{ByOpcode: make(map[int]int64), Functions: make(map[string]int64), Records: int64(len(recs))}
	for i := range recs {
		st.ByOpcode[recs[i].Opcode]++
		st.Functions[recs[i].Func]++
	}
	return st
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
