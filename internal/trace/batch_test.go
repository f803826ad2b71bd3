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
// runs dry and closing the feed after the last one — so one ReadInto reads
// it to its end, as it reads a stream.
type fedReader struct {
	*WindowReader
	data   []byte
	cuts   []int
	closed bool
}

func newFedReader(data []byte, cuts ...int) *fedReader {
	return &fedReader{WindowReader: NewFedReader(), data: data, cuts: cuts}
}

func (f *fedReader) ReadInto(sink Sink) error {
	for {
		if err := f.WindowReader.ReadInto(sink); err != nil || f.closed {
			return err
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

// batchReaders enumerates every way to open the one reader over the same
// encoded trace: in memory; as a stream delivered whole, one byte per
// Read, and in random small chunks; and fed in cuts of fixed sizes, whole,
// and with a first cut shorter than the ACTB magic.
func batchReaders(t *testing.T, text, bin []byte) map[string]func() Reader {
	t.Helper()
	readers := map[string]func() Reader{
		"textBytes": func() Reader {
			rd, f, err := NewBytesReader(text)
			if err != nil || f != FormatText {
				t.Fatalf("NewBytesReader(text) = %v, %v", f, err)
			}
			return rd
		},
		"binBytes": func() Reader {
			rd, f, err := NewBytesReader(bin)
			if err != nil || f != FormatBinary {
				t.Fatalf("NewBytesReader(bin) = %v, %v", f, err)
			}
			return rd
		},
		"textScanner":       func() Reader { return newStreamReader(bytes.NewReader(text), FormatText) },
		"binScanner":        func() Reader { return newStreamReader(bytes.NewReader(bin), FormatBinary) },
		"textOneByte":       func() Reader { return newStreamReader(iotest.OneByteReader(bytes.NewReader(text)), FormatText) },
		"binOneByte":        func() Reader { return newStreamReader(iotest.OneByteReader(bytes.NewReader(bin)), FormatBinary) },
		"textChunked":       func() Reader { return newStreamReader(newChunkReader(text, 1), FormatText) },
		"binChunked":        func() Reader { return newStreamReader(newChunkReader(bin, 2), FormatBinary) },
		"textFedShortMagic": func() Reader { return newFedReader(text, len(binaryMagic)-1, 512) },
		"binFedShortMagic":  func() Reader { return newFedReader(bin, len(binaryMagic)-1, 512) },
	}
	for _, cut := range []int{1, 2, 7, 512} {
		readers[fmt.Sprintf("fedText%d", cut)] = func() Reader { return newFedReader(text, cut) }
		readers[fmt.Sprintf("fedBin%d", cut)] = func() Reader { return newFedReader(bin, cut) }
	}
	readers["fedTextWhole"] = func() Reader { return newFedReader(text, len(text)) }
	readers["fedBinWhole"] = func() Reader { return newFedReader(bin, len(bin)) }
	return readers
}

// TestReadIntoParity pins that every reader yields the same records as
// the serial parser — and that one RecordBatch can be reused across
// readers and formats without cross-contamination.
func TestReadIntoParity(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 700)
	text, bin := EncodeAll(recs), EncodeBinary(recs)
	want, err := ParseBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	var b RecordBatch // shared across every subtest on purpose
	for name, open := range batchReaders(t, text, bin) {
		b.Reset()
		if err := open().ReadInto(b.Add); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalModuloNaN(want, b.Recs) {
			t.Errorf("%s: records differ from serial parse", name)
		}
	}
}

// TestErrorIsSticky pins that a decode error is terminal: the records
// before the bad one are delivered, then every later ReadInto returns the
// same error and never hands on another record — a decoder that failed
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
		count := func([]Record, []uint32) { n++ }
		first := rd.ReadInto(count)
		if first == nil {
			t.Fatalf("%s: clean end of trace after %d records, want an error", name, n)
		}
		if n != good {
			t.Errorf("%s: %d records before the error, want %d", name, n, good)
		}
		for i := 0; i < 3; i++ {
			if err := rd.ReadInto(count); n != good || err != first {
				t.Fatalf("%s: ReadInto after the error = %d more records, %v; want none and the same error", name, n-good, err)
			}
		}
	}
}

// drain reads rd to its end or first error, cloning the records it hands
// on: those before an error too.
func drain(rd Reader) ([]Record, error) {
	var b RecordBatch
	err := rd.ReadInto(b.Add)
	return b.Recs, err
}

// TestFedReaderMatchesStream pins the fed reader on the inputs whose end
// decides the outcome: the empty trace, traces shorter than the ACTB magic
// (the format waits for the closed feed), and a record over the streaming
// cap in either format. Fed in any cuts, each must give the records and
// the error string a stream of the same bytes gives, and so must every
// feed handed over before the first read.
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
		want, werr := drain(st)
		if strings.HasPrefix(name, "over-cap") && !errors.Is(werr, bufio.ErrTooLong) {
			t.Fatalf("%s: stream error %v, want a wrapped bufio.ErrTooLong", name, werr)
		}
		for _, cuts := range [][]int{{1, 512}, {len(binaryMagic) - 1, 64 << 10}, {max(len(data), 1)}} {
			got, gerr := drain(newFedReader(data, cuts...))
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
		if got, gerr := drain(ahead); fmt.Sprint(gerr) != fmt.Sprint(werr) || !equalModuloNaN(want, got) {
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

// TestForEachBatchCutsTheStream pins ForEachBatch's calls: every
// DefaultBatchRecords records and then the rest, each with its stream
// index; an error from fn ends the calls and is returned; a decode error
// drops the batch it cut short.
func TestForEachBatchCutsTheStream(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(17)), 2*DefaultBatchRecords+276)
	data := EncodeAll(recs)
	want, err := ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var b RecordBatch
	boom := errors.New("boom")
	sweep := func(data []byte, fail int) (bases, sizes []int, got []Record, err error) {
		rd, _, rerr := NewBytesReader(data)
		if rerr != nil {
			t.Fatal(rerr)
		}
		err = ForEachBatch(rd, &b, func(base int, rs []Record) error {
			bases, sizes = append(bases, base), append(sizes, len(rs))
			for i := range rs {
				got = append(got, rs[i].Clone())
			}
			if len(bases) == fail {
				return boom
			}
			return nil
		})
		return bases, sizes, got, err
	}
	bases, sizes, got, err := sweep(data, 0)
	if err != nil || !reflect.DeepEqual(bases, []int{0, 512, 1024}) || !reflect.DeepEqual(sizes, []int{512, 512, 276}) {
		t.Fatalf("sweep: bases %v, sizes %v, %v; want [0 512 1024], [512 512 276], no error", bases, sizes, err)
	}
	if !equalModuloNaN(want, got) {
		t.Fatal("sweep's records differ from serial parse")
	}
	if bases, _, _, err = sweep(data, 1); !errors.Is(err, boom) || len(bases) != 1 {
		t.Errorf("fn failing at its first call: %d calls, %v; want 1 and its error", len(bases), err)
	}
	bad := append(EncodeAll(recs[:DefaultBatchRecords+10]), "0,x\n"...)
	if bases, _, _, err = sweep(bad, 0); err == nil || len(bases) != 1 {
		t.Errorf("a decode error after %d records: %d calls, %v; want 1 and the error", DefaultBatchRecords+10, len(bases), err)
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
		if err := rd.ReadInto(b.Add); err != nil {
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
		if err := rd.ReadInto(b.Add); err != nil {
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
	add := b.Add
	pass := func() {
		br.pos = 0
		b.Reset()
		if err := br.ReadInto(add); err != nil {
			t.Fatal(err)
		}
	}
	pass() // sizes Recs and the operand arena
	allocs := testing.AllocsPerRun(20, pass)
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
	n := 0
	check := func(recs []Record, _ []uint32) {
		if r := &recs[0]; len(r.Ops) != 2 || r.Ops[0].Name != "3" || r.Ops[1].Index != 2 || r.Result == nil || r.Result.Name != "6" {
			t.Fatalf("record %d decoded as %s", n, r.String())
		}
		n++
	}
	pass := func() int {
		br.pos, n = 0, 0
		if err := br.ReadInto(check); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := pass(); n != 1000 {
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
