package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

const (
	// windowBytes is the size of the byte window a stream is decoded
	// through, unless a record outgrows it. The window starts at
	// firstWindowBytes, so a short stream holds a short window, and the
	// first Read that fills it grows it to windowBytes in one step:
	// doubling up to it would allocate it about twice over.
	windowBytes      = 256 << 10
	firstWindowBytes = 4 << 10
	// maxRecordBytes caps how far the window grows for a single record (one
	// text block or one ACTB record) that does not fit it. Only streams are
	// capped: an in-memory trace is its own window.
	maxRecordBytes = 1 << 22
)

// WindowReader is the one trace reader: it decodes either format from a
// window of the trace's bytes. Over an in-memory trace
// (NewBytesReader) the window is the whole input. Over an io.Reader, or
// over bytes the caller feeds it (NewFedReader), it is a bounded, reused
// buffer that slides its undecoded tail to the front and refills with one
// Read at a time, so a trace is decoded as it arrives. Either way the
// bytes go to the same two decoders, decoder.decode (text) and
// binDecoder.record (ACTB), which hand each record to the caller's sink
// (ReadInto).
type WindowReader struct {
	src    io.Reader // nil over an in-memory trace; a *feed when fed
	buf    []byte    // the window; buf[pos:end] is read but not yet decoded
	pos    int
	end    int
	base   int64 // stream offset of buf[0]
	srcErr error // from src's last Read; io.EOF makes this the final window
	err    error // the first decode or read error, repeated by every later call
	format Format
	sniff  bool // the format is still to be read off the first bytes

	text    *decoder // made by the first text decode
	cut     int      // text: buf[pos:cut] holds complete blocks only
	scanned int      // text: buf[:scanned] has been searched for the cut

	bin binDecoder // binary: its data and pos stand in for buf[:end] and pos between fills
}

// NewAutoReader returns a streaming reader for whichever format the
// stream's first bytes announce, reading just far enough to tell. Text is
// assumed when the stream is shorter than the binary magic.
func NewAutoReader(r io.Reader) (Reader, Format, error) {
	w := newStreamReader(r, FormatText)
	if err := w.detect(); err != nil {
		return nil, 0, err
	}
	return w, w.format, nil
}

// NewFedReader returns a reader of a trace handed over in pieces with
// Feed, in either format (read off the first bytes once the magic's worth
// has arrived or the feed is closed). Out of fed bytes before CloseFeed,
// ReadInto returns with no error, having handed on every record the fed
// bytes complete; the next Feed and ReadInto resume.
func NewFedReader() *WindowReader {
	w := newStreamReader(&feed{}, FormatText)
	w.sniff = true
	return w
}

// Feed hands over the next bytes of the trace; only a reader from
// NewFedReader takes them. The window copies them as it refills, so p
// must not change until the next ReadInto returns.
func (w *WindowReader) Feed(p []byte) {
	f := w.src.(*feed)
	f.queue = append(f.queue, p)
}

// CloseFeed ends the trace: the last window is final, as io.EOF makes it.
func (w *WindowReader) CloseFeed() { w.src.(*feed).closed = true }

// feed is a fed reader's source: the pieces fed and not yet in the window,
// in order. Out of bytes with the feed open it reads errStarved, which
// fill does not keep and ReadInto turns into "nothing more for now".
type feed struct {
	queue  [][]byte
	closed bool
}

var errStarved = errors.New("trace: fed reader has no bytes")

func (f *feed) Read(p []byte) (int, error) {
	for len(f.queue) > 0 {
		n := copy(p, f.queue[0])
		if f.queue[0] = f.queue[0][n:]; len(f.queue[0]) == 0 {
			f.queue[0] = nil // keep no reference to the caller's bytes
			if len(f.queue) == 1 {
				f.queue = f.queue[:0] // empty: the next Feed reuses the array
			} else {
				f.queue = f.queue[1:]
			}
		}
		if n > 0 {
			return n, nil
		}
	}
	if f.closed {
		return 0, io.EOF
	}
	return 0, errStarved
}

// NewBytesReader returns a reader over a complete in-memory trace, text
// or binary by magic, whose window is the input itself — the fast source
// for streaming analysis over bytes already in memory. A bad ACTB header
// fails here rather than on the first read.
func NewBytesReader(data []byte) (Reader, Format, error) {
	f := DetectFormat(data)
	w, err := newBytesReader(data, f)
	if err != nil {
		return nil, f, err
	}
	return w, f, nil
}

// newBytesReader is NewBytesReader with the format given: data is the
// whole, final window, and an ACTB header is checked up front.
func newBytesReader(data []byte, f Format) (*WindowReader, error) {
	w := newStreamReader(nil, f)
	w.buf, w.end, w.srcErr = data, len(data), io.EOF
	if f == FormatBinary {
		w.bin.data, w.bin.stable = data, true
		if err := w.bin.header(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func newStreamReader(r io.Reader, f Format) *WindowReader {
	return &WindowReader{src: r, format: f}
}

// final reports whether the window holds the last bytes of the trace.
func (w *WindowReader) final() bool { return w.srcErr == io.EOF }

// detect fills the window until it holds the binary magic's worth of
// bytes or the stream ends, then fixes the format by magic (text when the
// stream is shorter). A failed Read is kept in srcErr.
func (w *WindowReader) detect() error {
	for w.end < len(binaryMagic) && w.srcErr == nil {
		if err := w.fill(); err == errStarved {
			return err
		}
	}
	if w.end < len(binaryMagic) && w.srcErr != io.EOF {
		return w.srcErr
	}
	w.bin.data = w.buf[:w.end]
	w.format = DetectFormat(w.bin.data)
	w.sniff = false
	return nil
}

// fill slides the undecoded tail to the front of the window and appends one
// Read's worth of the stream — never more, so a reader on a live stream
// sees each write as it lands. The window is allocated by the first fill,
// grows to windowBytes after a Read filled it to its end, and doubles
// beyond that only when the tail alone fills it, up to maxRecordBytes. A
// read error that arrives with bytes is held back until those bytes are
// decoded; a starved feed is returned and not kept.
func (w *WindowReader) fill() error {
	if w.srcErr != nil {
		return w.srcErr
	}
	filled := w.end == len(w.buf)
	w.end = copy(w.buf, w.buf[w.pos:w.end])
	w.base += int64(w.pos)
	w.pos = 0
	if w.end == len(w.buf) || filled && len(w.buf) < windowBytes {
		if len(w.buf) >= maxRecordBytes {
			return fmt.Errorf("trace: record at byte offset %d exceeds the %d-byte streaming record cap (parse in memory with ParseBytes, which has no cap): %w",
				w.base, maxRecordBytes, bufio.ErrTooLong)
		}
		grow := firstWindowBytes
		if len(w.buf) > 0 {
			grow = max(len(w.buf), windowBytes-len(w.buf))
		}
		w.buf = append(w.buf, make([]byte, grow)...)
	}
	var n int
	var err error
	for tries := 0; n == 0 && err == nil; tries++ {
		if tries == 100 {
			err = io.ErrNoProgress
			break
		}
		n, err = w.src.Read(w.buf[w.end:])
	}
	w.end += n
	if err == errStarved {
		return err
	}
	w.srcErr = err
	if n == 0 && err != io.EOF {
		return err
	}
	return nil
}

// ReadInto decodes to the end of the trace, or of the bytes fed so far,
// handing each record to sink as it is decoded, in place (see Sink).
// After an error every call returns that error and hands on nothing: a
// decoder that failed mid-record has no position to resume from. A fed
// reader out of bytes returns no error.
func (w *WindowReader) ReadInto(sink Sink) error {
	err := w.err
	if err == nil && w.sniff {
		err = w.detect()
	}
	if err == nil {
		if w.format == FormatBinary {
			err = w.nextBinary(sink)
		} else {
			err = w.nextText(sink)
		}
	}
	if err == errStarved {
		err = nil
	}
	w.err = err
	return err
}

// nextText hands decode the window up to its last "\n0,": everything
// before a block header is complete blocks, so the decoder never sees a
// record the next refill would extend. The final
// window is decoded to its end.
func (w *WindowReader) nextText(sink Sink) error {
	if w.text == nil {
		w.text = newDecoder()
	}
	for {
		if w.pos < w.cut {
			pos, err := w.text.decode(sink, w.buf[:w.cut], w.pos)
			if err != nil {
				return err
			}
			w.pos = pos
			continue
		}
		if w.scanned == w.end {
			if w.final() {
				return nil
			}
			w.cut, w.scanned = 0, w.scanned-w.pos // fill slides pos to 0
			if err := w.fill(); err != nil {
				return err
			}
		}
		// Only bytes not searched before are searched (less a mark's
		// overlap), so a block of many refills costs one pass, not one per
		// refill. The header at pos opens a block; it does not end one.
		from := max(w.scanned-len(headerMark)+1, w.pos)
		if i := bytes.LastIndex(w.buf[from:w.end], headerMark); i >= 0 {
			w.cut = from + i + 1
		}
		if w.final() {
			w.cut = w.end
		}
		w.scanned = w.end
	}
}

// nextBinary decodes records until one runs off the end of a non-final
// window; that record, which the decoder has rolled back (see
// binDecoder.record), is decoded again after a refill, and no error is
// formatted for it. In the final window running off the end is the
// truncation error.
func (w *WindowReader) nextBinary(sink Sink) error {
	d := &w.bin
	for {
		if d.pos < len(d.data) {
			if d.base == 0 && d.pos == 0 {
				err := d.header()
				if err == nil {
					continue
				}
				if w.final() || !errors.Is(err, io.ErrUnexpectedEOF) {
					return err
				}
			} else if code := d.record(sink); code == 0 {
				continue
			} else if w.final() || code != truncated {
				return d.err(code)
			}
		} else if w.final() {
			return nil
		}
		w.pos = d.pos
		err := w.fill()
		d.data, d.pos, d.base = w.buf[:w.end], 0, w.base
		if err != nil {
			return err
		}
	}
}
