package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader serves r in seeded random Reads of 1–97 bytes, so window
// refills land at every offset inside a record.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
}

func newChunkReader(data []byte, seed int64) *chunkReader {
	return &chunkReader{r: bytes.NewReader(data), rng: rand.New(rand.NewSource(seed))}
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(97); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// fedReader hands data to a fed reader in cuts of cuts[0], cuts[1], …
// bytes, the last size repeating, feeding the next cut whenever the reader
// runs dry and closing the feed after the last one — so the tests' drain
// loops read it as they read a stream.
type fedReader struct {
	*WindowReader
	data   []byte
	cuts   []int
	closed bool
	one    RecordBatch
}

func newFedReader(data []byte, cuts ...int) *fedReader {
	return &fedReader{WindowReader: NewFedReader(), data: data, cuts: cuts}
}

func (f *fedReader) NextBatch(b *RecordBatch, max int) (int, error) {
	for {
		n, err := f.WindowReader.NextBatch(b, max)
		if n > 0 || err != nil || f.closed {
			return n, err
		}
		if len(f.data) == 0 {
			f.CloseFeed()
			f.closed = true
			continue
		}
		k := min(f.cuts[0], len(f.data))
		if len(f.cuts) > 1 {
			f.cuts = f.cuts[1:]
		}
		f.Feed(f.data[:k])
		f.data = f.data[k:]
	}
}

// Next is NextBatch of one through the feeding loop above.
func (f *fedReader) Next() (*Record, error) {
	if n, err := f.NextBatch(&f.one, 1); err != nil || n == 0 {
		return nil, err
	}
	rec := f.one.Recs[0].Clone()
	return &rec, nil
}

// batchReaders enumerates every way to open the one reader over the same
// encoded trace: in memory; as a stream delivered whole, one byte per
// Read, and in random small chunks; and fed in cuts of fixed sizes, whole,
// and with a first cut shorter than the ACTB magic.
func batchReaders(t *testing.T, text, bin []byte) map[string]func() BatchReader {
	t.Helper()
	readers := map[string]func() BatchReader{
		"textBytes": func() BatchReader {
			rd, f, err := NewBytesReader(text)
			if err != nil || f != FormatText {
				t.Fatalf("NewBytesReader(text) = %v, %v", f, err)
			}
			return rd
		},
		"binBytes": func() BatchReader {
			rd, f, err := NewBytesReader(bin)
			if err != nil || f != FormatBinary {
				t.Fatalf("NewBytesReader(bin) = %v, %v", f, err)
			}
			return rd
		},
		"textScanner":       func() BatchReader { return newStreamReader(bytes.NewReader(text), FormatText) },
		"binScanner":        func() BatchReader { return newStreamReader(bytes.NewReader(bin), FormatBinary) },
		"textOneByte":       func() BatchReader { return newStreamReader(iotest.OneByteReader(bytes.NewReader(text)), FormatText) },
		"binOneByte":        func() BatchReader { return newStreamReader(iotest.OneByteReader(bytes.NewReader(bin)), FormatBinary) },
		"textChunked":       func() BatchReader { return newStreamReader(newChunkReader(text, 1), FormatText) },
		"binChunked":        func() BatchReader { return newStreamReader(newChunkReader(bin, 2), FormatBinary) },
		"textFedShortMagic": func() BatchReader { return newFedReader(text, len(binaryMagic)-1, 512) },
		"binFedShortMagic":  func() BatchReader { return newFedReader(bin, len(binaryMagic)-1, 512) },
	}
	for _, cut := range []int{1, 2, 7, 512} {
		readers[fmt.Sprintf("fedText%d", cut)] = func() BatchReader { return newFedReader(text, cut) }
		readers[fmt.Sprintf("fedBin%d", cut)] = func() BatchReader { return newFedReader(bin, cut) }
	}
	readers["fedTextWhole"] = func() BatchReader { return newFedReader(text, len(text)) }
	readers["fedBinWhole"] = func() BatchReader { return newFedReader(bin, len(bin)) }
	return readers
}

// drainBatches reads rd to the end through NextBatch, cloning each
// batch's records (batch storage is recycled between calls).
func drainBatches(t *testing.T, rd BatchReader, b *RecordBatch, max int) []Record {
	t.Helper()
	var out []Record
	for {
		n, err := rd.NextBatch(b, max)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for i := range b.Recs[:n] {
			out = append(out, b.Recs[i].Clone())
		}
	}
}

// TestNextBatchParity pins that every batch reader yields the same
// records as the serial parser, across batch sizes that do and do not
// divide the trace evenly — and that one RecordBatch can be reused
// across readers and formats without cross-contamination.
func TestNextBatchParity(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 700)
	text, bin := EncodeAll(recs), EncodeBinary(recs)
	want, err := ParseBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	var b RecordBatch // shared across every subtest on purpose
	for name, open := range batchReaders(t, text, bin) {
		for _, max := range []int{1, 7, 256, 100000} {
			got := drainBatches(t, open(), &b, max)
			if !equalModuloNaN(want, got) {
				t.Errorf("%s max=%d: batch records differ from serial parse", name, max)
			}
		}
	}
}

// TestNextBatchVsNext pins that interleaving Next and NextBatch on the
// same reader walks the same stream: batch decoding is a protocol
// extension, not a separate cursor.
func TestNextBatchVsNext(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(12)), 120)
	text, bin := EncodeAll(recs), EncodeBinary(recs)
	want, err := ParseBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range batchReaders(t, text, bin) {
		rd := open()
		var got []Record
		var b RecordBatch
		for i := 0; len(got) < len(want); i++ {
			if i%2 == 0 {
				r, err := rd.Next()
				if err != nil {
					t.Fatalf("%s: Next: %v", name, err)
				}
				if r == nil {
					break
				}
				got = append(got, r.Clone())
			} else {
				n, err := rd.NextBatch(&b, 5)
				if err != nil {
					t.Fatalf("%s: NextBatch: %v", name, err)
				}
				if n == 0 {
					break
				}
				for k := range b.Recs[:n] {
					got = append(got, b.Recs[k].Clone())
				}
			}
		}
		if !equalModuloNaN(want, got) {
			t.Errorf("%s: interleaved Next/NextBatch differs from serial parse", name)
		}
	}
}

// TestErrorIsSticky pins that a decode error is terminal: the records
// before the bad one are delivered, then every later Next and NextBatch
// returns the same error and never another record — a decoder that failed
// mid-record would otherwise resume inside it and fabricate one.
func TestErrorIsSticky(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(16)), 60)
	const good = 40
	// Encoding a prefix of the records yields a prefix of the bytes, so
	// these are the offsets of record 40: its "0," header, its flags byte.
	text, bin := EncodeAll(recs), EncodeBinary(recs)
	text[len(EncodeAll(recs[:good]))+2] = 'x' // line number
	bin[len(EncodeBinary(recs[:good]))] = 0xff
	for name, open := range batchReaders(t, text, bin) {
		rd := open()
		n := 0
		var first error
		for first == nil {
			rec, err := rd.Next()
			if rec == nil && err == nil {
				t.Fatalf("%s: clean end of trace after %d records, want an error", name, n)
			}
			if first = err; err == nil {
				n++
			}
		}
		if n != good {
			t.Errorf("%s: %d records before the error, want %d", name, n, good)
		}
		var b RecordBatch
		for i := 0; i < 3; i++ {
			if rec, err := rd.Next(); rec != nil || err != first {
				t.Fatalf("%s: Next after the error = (%v, %v), want the same error", name, rec, err)
			}
			if got, err := rd.NextBatch(&b, 8); got != 0 || len(b.Recs) != 0 || err != first {
				t.Fatalf("%s: NextBatch after the error = (%d, %v), want the same error", name, got, err)
			}
		}
	}
}

// drain reads rd to its end or first error through NextBatch, cloning the
// records out of the recycled batch.
func drain(rd BatchReader, max int) ([]Record, error) {
	var b RecordBatch
	var out []Record
	for {
		n, err := rd.NextBatch(&b, max)
		if err != nil || n == 0 {
			return out, err
		}
		for i := range b.Recs[:n] {
			out = append(out, b.Recs[i].Clone())
		}
	}
}

// TestFedReaderMatchesStream pins the fed reader on the inputs whose end
// decides the outcome: the empty trace, traces shorter than the ACTB magic
// (the format waits for the closed feed), and a record over the streaming
// cap in either format. Fed in any cuts, each must give the records and
// the error string a stream of the same bytes gives, and so must every
// feed handed over before the first read. They are read one
// record per call: a batch that meets an error is dropped whole, and a fed
// reader's batches also end where its feeds do.
func TestFedReaderMatchesStream(t *testing.T) {
	long := Record{Line: 1, Func: strings.Repeat("f", maxRecordBytes+16), Block: "b", Opcode: OpBr, DynID: 1}
	head := sampleRecords()
	overCap := append(append([]Record{}, head...), long)
	inputs := map[string][]byte{
		"empty":           nil,
		"short-text":      []byte("0,"),
		"magic-prefix":    binaryMagic[:len(binaryMagic)-1],
		"magic-only":      binaryMagic,
		"over-cap-text":   EncodeAll(overCap),
		"over-cap-bin":    EncodeBinary(overCap),
		"header-only-bin": EncodeBinary(nil),
	}
	for name, data := range inputs {
		st, _, err := NewAutoReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: NewAutoReader: %v", name, err)
		}
		want, werr := drain(st, 1)
		if strings.HasPrefix(name, "over-cap") && !errors.Is(werr, bufio.ErrTooLong) {
			t.Fatalf("%s: stream error %v, want a wrapped bufio.ErrTooLong", name, werr)
		}
		for _, cuts := range [][]int{{1, 512}, {len(binaryMagic) - 1, 64 << 10}, {max(len(data), 1)}} {
			got, gerr := drain(newFedReader(data, cuts...), 1)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !equalModuloNaN(want, got) {
				t.Errorf("%s cuts %v: fed read = %d records, %v; stream = %d records, %v",
					name, cuts, len(got), gerr, len(want), werr)
			}
		}
		// Feeds that arrive before the reader has read the earlier ones
		// queue behind them.
		ahead := NewFedReader()
		for i := 0; i < len(data); i += 512 {
			ahead.Feed(data[i:min(i+512, len(data))])
		}
		ahead.CloseFeed()
		if got, gerr := drain(ahead, 1); fmt.Sprint(gerr) != fmt.Sprint(werr) || !equalModuloNaN(want, got) {
			t.Errorf("%s fed ahead: %d records, %v; stream = %d records, %v", name, len(got), gerr, len(want), werr)
		}
	}
}

// TestFeedQueueKeepsItsArray: a fed reader's queue that empties keeps its
// array, so after the first Feed a Feed and the reads that drain it
// allocate nothing for the queue, and the drained slot lets go of the
// caller's bytes.
func TestFeedQueueKeepsItsArray(t *testing.T) {
	w := NewFedReader()
	f := w.src.(*feed)
	piece := []byte("0,1,f,b,2,1\n")
	buf := make([]byte, 5)
	cycle := func() {
		w.Feed(piece)
		for {
			if _, err := f.Read(buf); err != nil {
				if err != errStarved {
					t.Fatalf("drained feed reads %v, want errStarved", err)
				}
				return
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a Feed/drain cycle allocates %.1f times, want 0", allocs)
	}
	if len(f.queue) != 0 || cap(f.queue) == 0 || f.queue[:1][0] != nil {
		t.Errorf("drained queue: %d pieces, room for %d, first slot kept: %v", len(f.queue), cap(f.queue), cap(f.queue) > 0 && f.queue[:1][0] != nil)
	}
}

// TestForEachBatchPropagatesReaderError: a decode error and a failed Read
// of the underlying stream both end the sweep with that error.
func TestForEachBatchPropagatesReaderError(t *testing.T) {
	var b RecordBatch
	ignore := func(int, []Record) error { return nil }
	if err := ForEachBatch(newStreamReader(strings.NewReader("0,notanint,f,b,27,1\n"), FormatText), &b, ignore); err == nil {
		t.Error("corrupt stream did not error")
	}
	boom := errors.New("boom")
	for _, f := range []Format{FormatText, FormatBinary} {
		src := io.MultiReader(bytes.NewReader(Encode(sampleRecords(), f)), iotest.ErrReader(boom))
		rd, _, err := NewAutoReader(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ForEachBatch(rd, &b, ignore); !errors.Is(err, boom) {
			t.Errorf("%v: sweep over a failing stream = %v, want boom", f, err)
		}
	}
}

// closeCounter counts Close calls through a batch-capable reader and
// fails them with err.
type closeCounter struct {
	BatchReader
	n   *int
	err error
}

func (c closeCounter) Close() error { *c.n++; return c.err }

// TestForEachBatchCloses pins the Closer contract and error propagation:
// the reader is closed exactly once, including when fn aborts the sweep,
// and a close failure surfaces after a clean sweep but never masks the
// sweep's own error.
func TestForEachBatchCloses(t *testing.T) {
	data := EncodeAll(sampleRecords())
	var b RecordBatch

	closes := 0
	rd := closeCounter{newStreamReader(bytes.NewReader(data), FormatText), &closes, nil}
	if err := ForEachBatch(rd, &b, func(int, []Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if closes != 1 {
		t.Errorf("clean sweep: %d Close calls, want 1", closes)
	}

	closes = 0
	rd = closeCounter{newStreamReader(bytes.NewReader(data), FormatText), &closes, nil}
	boom := errors.New("boom")
	if err := ForEachBatch(rd, &b, func(int, []Record) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("aborted sweep error = %v, want boom", err)
	}
	if closes != 1 {
		t.Errorf("aborted sweep: %d Close calls, want 1", closes)
	}

	closeFailed := errors.New("close failed")
	rd = closeCounter{newStreamReader(bytes.NewReader(data), FormatText), &closes, closeFailed}
	if err := ForEachBatch(rd, &b, func(int, []Record) error { return nil }); !errors.Is(err, closeFailed) {
		t.Errorf("clean sweep with a failing Close = %v, want the close error", err)
	}
	rd = closeCounter{newStreamReader(bytes.NewReader(data), FormatText), &closes, closeFailed}
	if err := ForEachBatch(rd, &b, func(int, []Record) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("sweep error masked by the close error: %v", err)
	}
}

// TestBatchOpsAppendSafe mirrors TestParsedOpsAppendSafe for the arena
// behind a batch, on every path a decoder hands records on by: a text
// block parsed field by field and one matched to a template, an ACTB
// version-1 record, and a version-2 definition, one-off and reference.
// Each batch must decode to the records encoded — so the values of a
// version-2 definition whose operands straddle an arena growth land in its
// Ops — and appending to one record's Ops must not clobber any record.
func TestBatchOpsAppendSafe(t *testing.T) {
	recs := appendSafeRecords()
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"text", EncodeAll(recs)},
		{"ACTB v1", encodeBinaryV1(recs)},
		{"ACTB v2", EncodeBinary(recs)},
	} {
		rd, _, err := NewBytesReader(in.data)
		if err != nil {
			t.Fatal(err)
		}
		b := &RecordBatch{}
		if _, err := rd.NextBatch(b, len(recs)+1); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !equalModuloNaN(b.Recs, recs) {
			t.Fatalf("%s: batch decodes to other records than were encoded", in.name)
		}
		// The paths taken: in text, the shape seen three times is parsed,
		// made a template and then matched; in version 2 the wide record
		// is a one-off.
		if ids := b.TemplateIDs; in.name == "text" && (ids[0] != NoTemplate || ids[1] == NoTemplate || ids[2] != ids[1]) ||
			in.name == "ACTB v2" && (ids[1] != ids[0] || ids[3] != NoTemplate) {
			t.Fatalf("%s: template ids %v do not take every path", in.name, ids)
		}
		want := make([]Record, len(b.Recs))
		for i := range b.Recs {
			want[i] = b.Recs[i].Clone()
		}
		for i := range b.Recs {
			_ = append(b.Recs[i].Ops, Operand{Index: 99, Name: "evil"})
			if !reflect.DeepEqual(b.Recs, want) {
				t.Fatalf("%s: append to record %d's Ops clobbered a record", in.name, i)
			}
		}
	}

	// The first template defined into an empty arena, of each width up to
	// 20 register inputs and a result: every one straddles a growth of the
	// arena while its operands are staged, one of them at the result.
	for n := 1; n <= 20; n++ {
		def := []Record{shapeRecord(n, 7)}
		rd, _, err := NewBytesReader(EncodeBinary(def))
		if err != nil {
			t.Fatal(err)
		}
		var b RecordBatch
		if _, err := rd.NextBatch(&b, 2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.Recs, def) {
			t.Fatalf("definition of %d inputs decodes as %s, want %s", n, b.Recs[0].String(), def[0].String())
		}
	}
}

// shapeRecord is a record of n register inputs and a result whose values
// depend on v, so that records of one n share a static half.
func shapeRecord(n int, v int64) Record {
	r := Record{Line: 40 + n, Func: "main", Block: "body", Opcode: OpCall, DynID: 100*v + int64(n),
		Result: &Operand{Size: 64, Value: IntValue(-v), IsReg: true, Name: fmt.Sprint("r", n)}}
	for i := 0; i < n; i++ {
		r.Ops = append(r.Ops, Operand{Index: i + 1, Size: 64, Value: PtrValue(uint64(0x1000*v) + uint64(8*i)), IsReg: true, Name: fmt.Sprint("a", i)})
	}
	return r
}

// appendSafeRecords is a trace with a record on every assembly path: a
// shape seen three times (text: parsed, parsed and made a template,
// matched; ACTB version 2: defined, then referred to twice), one too wide
// for a template (a version-2 one-off), and each of sampleRecords.
func appendSafeRecords() []Record {
	recs := []Record{shapeRecord(3, 1), shapeRecord(3, 2), shapeRecord(3, 3), shapeRecord(maxTemplateOperands+6, 4)}
	return append(recs, sampleRecords()...)
}

// TestBatchDecodeAllocs pins that steady-state batch decoding of an
// in-memory trace allocates nothing per record once the batch storage has
// grown to size — the property the streaming analysis path is built on.
// Text is allocation-free; ACTB, read by a fresh reader per pass as each
// analysis opens one, allocates its string table's strings and a constant.
func TestBatchDecodeAllocs(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(15)), 2000)
	data := EncodeAll(recs)
	rd, _, err := NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	br := rd.(*WindowReader)
	var b RecordBatch
	// Warm up: one full pass sizes Recs and the operand arena.
	for {
		n, err := br.NextBatch(&b, DefaultBatchRecords)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		br.pos = 0
		for {
			n, err := br.NextBatch(&b, DefaultBatchRecords)
			if err != nil || n == 0 {
				return
			}
		}
	})
	// The interner may still intern a handful of previously unseen
	// value strings; allow a small slack, not per-record growth.
	if allocs > 10 {
		t.Errorf("steady-state batch decode = %.1f allocs per full pass, want <= 10", allocs)
	}

	bin := EncodeBinary(recs)
	strs := map[string]bool{}
	for _, r := range recs {
		strs[r.Func], strs[r.Block] = true, true
		for _, o := range r.Ops {
			strs[o.Name] = true
		}
		if r.Result != nil {
			strs[r.Result.Name] = true
		}
	}
	b = RecordBatch{}
	sweep := func() {
		rd, _, err := NewBytesReader(bin)
		if err != nil {
			t.Fatal(err)
		}
		if err := ForEachBatch(rd, &b, func(int, []Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // sizes Recs and the operand arena
	// A fresh reader costs a few allocations of its own and the string
	// table one per distinct string plus its growth.
	allocs = testing.AllocsPerRun(20, sweep)
	if limit := float64(len(strs) + 8); allocs > limit {
		t.Errorf("ACTB: warmed sweep of %d records = %.1f allocs, want <= %.0f (%d distinct strings)",
			len(recs), allocs, limit, len(strs))
	}
}

// TestRareShapeDecodeAllocs pins the same for the block shape whose result
// the decoder holds aside until the block ends — result lines first, one
// more that wins, an input after each run: 1,000 such blocks decode,
// correctly, without one allocation per block (a compaction of the staged
// lines once built a map for each).
func TestRareShapeDecodeAllocs(t *testing.T) {
	data := resultFirstBlocks(1000)
	rd, _, err := NewBytesReader(data)
	if err != nil {
		t.Fatal(err)
	}
	br := rd.(*WindowReader)
	var b RecordBatch
	pass := func() (n int) {
		br.pos = 0
		for {
			k, err := br.NextBatch(&b, DefaultBatchRecords)
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				return n
			}
			for _, r := range b.Recs[:k] {
				if len(r.Ops) != 2 || r.Ops[0].Name != "3" || r.Ops[1].Index != 2 || r.Result == nil || r.Result.Name != "6" {
					t.Fatalf("record %d decoded as %s", n, r.String())
				}
				n++
			}
		}
	}
	if n := pass(); n != 1000 { // also sizes Recs and the operand arena
		t.Fatalf("%d records, want 1000", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { pass() }); allocs > 0 {
		t.Errorf("steady-state decode of 1,000 result-first blocks = %.1f allocs per pass, want 0", allocs)
	}
}

// TestCloneIntoAndAppendSurface: the ways to copy a record into shared
// operand storage. CloneInto fills an arena in place while it has room
// and survives the arena moving when it has not; a RecordBatch filled
// through AppendOperand/AppendRecord hands out the same records; Reset
// recycles a batch. No copy aliases its source.
func TestCloneIntoAndAppendSurface(t *testing.T) {
	op := func(i int) Operand {
		return Operand{Index: i, Size: 64, Value: IntValue(int64(10 * i)), IsReg: true, Name: fmt.Sprintf("r%d", i)}
	}
	res := op(0)
	src := []Record{
		{Line: 1, Func: "f", Block: "b", Opcode: OpAdd, DynID: 1, Ops: []Operand{op(1), op(2)}, Result: &res},
		{Line: 2, Func: "f", Block: "b", Opcode: OpBr, DynID: 2},
		{Line: 3, Func: "f", Block: "b", Opcode: OpStore, DynID: 3, Ops: []Operand{op(1), op(2)}},
	}
	want := make([]string, len(src))
	total := 0
	for i := range src {
		want[i] = src[i].String()
		total += src[i].NumOperands()
	}
	if total != 5 {
		t.Fatalf("NumOperands sums to %d, want 5", total)
	}

	var b RecordBatch
	for round := 0; round < 2; round++ {
		b.Reset()
		for i := range src {
			for _, o := range src[i].Ops {
				b.AppendOperand(o)
			}
			if src[i].Result != nil {
				b.AppendOperand(*src[i].Result)
			}
			b.AppendRecord(Record{Line: src[i].Line, Func: src[i].Func, Block: src[i].Block, Opcode: src[i].Opcode, DynID: src[i].DynID}, src[i].Result != nil)
		}
	}
	for name, arena := range map[string][]Operand{"roomy": make([]Operand, 0, total), "moving": nil} {
		base := arena[:cap(arena)]
		clones := make([]Record, len(src))
		for i := range src {
			arena = src[i].CloneInto(&clones[i], arena)
		}
		if name == "roomy" && &arena[0] != &base[0] {
			t.Errorf("%s: arena with room was reallocated", name)
		}
		for i := range clones {
			if got := clones[i].String(); got != want[i] {
				t.Errorf("%s: clone %d = %q, want %q", name, i, got, want[i])
			}
		}
		if len(clones[0].Ops) > 0 && &clones[0].Ops[0] == &src[0].Ops[0] {
			t.Errorf("%s: clone aliases its source", name)
		}
	}
	if len(b.Recs) != len(src) {
		t.Fatalf("batch holds %d records after Reset and refill, want %d", len(b.Recs), len(src))
	}
	for i := range b.Recs {
		if got := b.Recs[i].String(); got != want[i] {
			t.Errorf("appended record %d = %q, want %q", i, got, want[i])
		}
	}
}
