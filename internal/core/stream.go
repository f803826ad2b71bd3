package core

import (
	"io"
	"os"

	"autocheck/internal/trace"
)

// AnalyzeStream runs the engine's offline schedule over a replayable
// record stream: bounded sweeps (header-only partition, then the fused
// analysis sweep), never materializing a []trace.Record. It produces
// results identical to Analyze on the same records (the equivalence is
// pinned by tests) because both are the same schedule over the same
// pass — only the source differs; memory stays O(variables) at the
// cost of decoding the trace once per sweep. Decoding goes through the
// batch reader protocol (trace.BatchReader) when the reader supports it,
// reusing one record slice and operand arena for the whole analysis.
//
// open is called once per sweep and must return a fresh reader positioned
// at the start of the same stream (for example trace.NewAutoReader over a
// reopened file). Readers that implement io.Closer are closed when their
// sweep ends.
func AnalyzeStream(open func() (trace.Reader, error), spec LoopSpec, opts Options) (*Result, error) {
	return analyzeStreamIn(&scratch{}, open, spec, opts)
}

// analyzeStreamIn is AnalyzeStream over a caller-owned scratch bundle:
// the stream decodes into the bundle's batch storage.
func analyzeStreamIn(sc *scratch, open func() (trace.Reader, error), spec LoopSpec, opts Options) (*Result, error) {
	return analyzeScheduleIn(sc, &streamSource{open: open, batch: &sc.batch}, spec, opts)
}

// bytesReaderOpener adapts an in-memory trace (either format) into the
// replayable stream AnalyzeStream needs: the whole input is the reader's
// window, so nothing is copied or refilled.
func bytesReaderOpener(data []byte) func() (trace.Reader, error) {
	return func() (trace.Reader, error) {
		rd, _, err := trace.NewBytesReader(data)
		return rd, err
	}
}

// closingReader pairs a file's batch reader with the file, so each
// streaming sweep releases its descriptor.
type closingReader struct {
	trace.BatchReader
	c io.Closer
}

func (r closingReader) Close() error { return r.c.Close() }

// fileReaderOpener re-opens a trace file (either format) for each
// streaming sweep.
func fileReaderOpener(path string) func() (trace.Reader, error) {
	return func() (trace.Reader, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rd, _, err := trace.NewAutoReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return closingReader{BatchReader: rd, c: f}, nil
	}
}
