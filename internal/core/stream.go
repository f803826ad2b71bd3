package core

import (
	"io"
	"os"

	"autocheck/internal/trace"
)

// The openers below make a trace a replayable stream for streamSource:
// each is called once per sweep and returns a fresh reader positioned at
// the start of the same trace.

// bytesReaderOpener adapts an in-memory trace (either format) into a
// replayable stream: the whole input is the reader's window, so nothing
// is copied or refilled.
func bytesReaderOpener(data []byte) func() (trace.BatchReader, error) {
	return func() (trace.BatchReader, error) {
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
func fileReaderOpener(path string) func() (trace.BatchReader, error) {
	return func() (trace.BatchReader, error) {
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
