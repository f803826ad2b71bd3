package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autocheck/internal/trace"
)

// TestNoLoopErrorDescriptive pins the error contract of every offline
// entry point: a LoopSpec that matches nothing yields a *NoLoopError
// naming the function, the line range, and the number of records scanned
// — never a silently empty Result.
func TestNoLoopErrorDescriptive(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	data := trace.EncodeAll(recs)
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := LoopSpec{Function: "nosuch", StartLine: 900, EndLine: 950}
	paths := map[string]func(Options) (*Result, error){
		"Analyze":      func(o Options) (*Result, error) { return Analyze(recs, bad, o) },
		"AnalyzeBytes": func(o Options) (*Result, error) { return AnalyzeBytes(data, bad, o) },
		"AnalyzeFile":  func(o Options) (*Result, error) { return AnalyzeFile(path, bad, o) },
	}
	for label, run := range paths {
		res, err := run(DefaultOptions())
		if err == nil {
			t.Fatalf("%s: no error for absent loop (result %+v)", label, res)
		}
		var nle *NoLoopError
		if !errors.As(err, &nle) {
			t.Fatalf("%s: error is %T, want *NoLoopError: %v", label, err, err)
		}
		if nle.Records != len(recs) {
			t.Errorf("%s: scanned %d records, want %d", label, nle.Records, len(recs))
		}
		msg := err.Error()
		for _, want := range []string{`"nosuch"`, "900-950", fmt.Sprint(len(recs))} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q missing %q", label, msg, want)
			}
		}
	}
}

// TestAnalyzeBytesErrorPrecedence pins the error contract of the
// never-materialized AnalyzeBytes path against the full decoders it
// replaced: a trace that ParseBytes/ParseBinary reject fails with that
// same decode error — also when the fault hides in operand lines the
// header-only partition sweep hops over, also when the LoopSpec matches
// nothing (a decode error is never reported as a missing loop), and, of two
// faults, the earlier one even when the later one sits in a header — while
// a well-formed trace without the loop is a *NoLoopError counting every
// record.
func TestAnalyzeBytesErrorPrecedence(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	text := trace.EncodeAll(recs)
	bin := trace.EncodeBinary(recs)
	// Splice point: the start of a block header well inside the loop, so a
	// line inserted there lands among the previous record's operand lines.
	cut := 0
	for i := 0; i < len(recs)/2; i++ {
		cut += bytes.Index(text[cut:], []byte("\n0,")) + 1
	}
	splice := func(line string) []byte {
		return append(append(append([]byte{}, text[:cut]...), line...), text[cut:]...)
	}
	noLoop := LoopSpec{Function: "nosuch", StartLine: 900, EndLine: 950}
	// The ACTB splice point: the first operand of an in-loop record with
	// operands past the middle of the trace, which the header-only partition
	// sweep skips. An operand spliced in there comes with its record's
	// operand count raised by one. (Encoding a prefix of the records yields
	// a prefix of the bytes; the record without its operands ends where its
	// first operand starts.)
	in := len(recs) / 2
	for !fig4Spec.contains(&recs[in]) || len(recs[in].Ops) == 0 {
		in++
	}
	bare := recs[in]
	bare.Ops, bare.Result = nil, nil
	opAt := len(trace.EncodeBinary(append(recs[:in:in], bare)))
	spliceOperand := func(op ...byte) []byte {
		data := append(append(append([]byte{}, bin[:opAt]...), op...), bin[opAt:]...)
		data[opAt-1]++ // the operand count, one byte
		return data
	}
	overflow := append(bytes.Repeat([]byte{0x80}, 10), 1)

	faulty := []struct {
		name  string
		data  []byte
		parse func([]byte) ([]trace.Record, error)
	}{
		{"text/no-header", []byte("garbage\nmore garbage\n"), trace.ParseBytes},
		{"text/bad-operand-after-valid-prefix", splice("1,1,64,zz,1,x\n"), trace.ParseBytes},
		{"text/bad-header-in-skipped-record", splice("0,notanint,main,b,27,5\n"), trace.ParseBytes},
		{"text/bad-operand-then-bad-header", append(splice("1,1,64,zz,1,x\n"), "0,notanint,main,b,27,5\n"...), trace.ParseBytes},
		{"actb/truncated-body", bin[:len(bin)/2], trace.ParseBinary},
		// meta, index 1, size 64, int 0, then the name ref "" — each row
		// breaks one field.
		{"actb/bad-meta-kind", spliceOperand(3, 2, 64, 0, 1), trace.ParseBinary},
		{"actb/string-ref-beyond-table", spliceOperand(0, 2, 64, 0, 0xff, 0xff, 0x7f), trace.ParseBinary},
		{"actb/new-name-with-separator", spliceOperand(0, 2, 64, 0, 0, 3, 'a', ',', 'b'), trace.ParseBinary},
		{"actb/11-byte-varint", spliceOperand(append(append([]byte{0, 2, 64}, overflow...), 1)...), trace.ParseBinary},
	}
	for _, tc := range faulty {
		_, want := tc.parse(tc.data)
		if want == nil {
			t.Fatalf("%s: fixture decodes cleanly", tc.name)
		}
		for label, spec := range map[string]LoopSpec{"loop": fig4Spec, "no-loop": noLoop} {
			_, err := AnalyzeBytes(tc.data, spec, DefaultOptions())
			var nle *NoLoopError
			if err == nil || errors.As(err, &nle) || err.Error() != want.Error() {
				t.Errorf("%s/%s: error %v, want the decode error %v", tc.name, label, err, want)
			}
		}
	}

	for name, data := range map[string][]byte{"text": text, "actb": bin} {
		_, err := AnalyzeBytes(data, noLoop, DefaultOptions())
		var nle *NoLoopError
		if !errors.As(err, &nle) {
			t.Fatalf("%s: error is %T, want *NoLoopError: %v", name, err, err)
		}
		if nle.Records != len(recs) {
			t.Errorf("%s: scanned %d records, want %d", name, nle.Records, len(recs))
		}
	}
}

// TestNoLoopErrorOnline: the single-sweep engine reports the same typed
// error when the loop never executes.
func TestNoLoopErrorOnline(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	eng, err := NewEngine(LoopSpec{Function: "main", StartLine: 900, EndLine: 950}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		eng.Observe(&recs[i])
	}
	_, err = eng.Finish()
	var nle *NoLoopError
	if !errors.As(err, &nle) {
		t.Fatalf("Finish error is %T, want *NoLoopError: %v", err, err)
	}
	if nle.Records != len(recs) {
		t.Errorf("scanned %d records, want %d", nle.Records, len(recs))
	}
}

// TestEngineMatchesOffline drives the single-sweep engine over
// materialized records and requires full result equivalence with the
// offline schedule — critical variables, MLI identities (including
// footprint sizes, thanks to the region-C freeze), and region stats.
func TestEngineMatchesOffline(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		spec LoopSpec
	}{
		{"fig4", fig4Source, fig4Spec},
		{"cg", cgSource, cgSpec},
		{"halo", haloSource, haloSpec},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			recs, mod := traceOf(t, tc.src)
			opts := DefaultOptions()
			opts.Module = mod
			want, err := Analyze(recs, tc.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(tc.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				eng.Observe(&recs[i])
			}
			got, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			requireEquivalent(t, "engine-vs-offline", want, got)
		})
	}
}

// TestEngineRefResolutionNoFootprintGrowth pins a footprint-parity case:
// a region-B GetElementPtr whose result points beyond a global's observed
// footprint, with the address never dereferenced. Reported footprints
// record Load/Store accesses only, so the reference must not grow the
// global in any adapter (the offline schedule's reported table never even
// sees depend-pass resolutions; the online engine shares one table and
// must resolve references without growth).
func TestEngineRefResolutionNoFootprintGrowth(t *testing.T) {
	ptr := func(idx int, addr uint64, name string) trace.Operand {
		return trace.Operand{Index: idx, Size: 64, Value: trace.PtrValue(addr), IsReg: true, Name: name}
	}
	reg := func(name string) *trace.Operand {
		return &trace.Operand{Index: 0, Size: 64, Value: trace.IntValue(1), IsReg: true, Name: name}
	}
	recs := []trace.Record{
		// Region A: named access registers and collects global g.
		{Line: 1, Func: "main", Block: "b", Opcode: trace.OpLoad, DynID: 1,
			Ops: []trace.Operand{ptr(1, 0x1000, "g")}, Result: reg("t0")},
		// Region B (loop lines 4-6): access g, then compute a far
		// reference into it that is never dereferenced.
		{Line: 5, Func: "main", Block: "b", Opcode: trace.OpLoad, DynID: 2,
			Ops: []trace.Operand{ptr(1, 0x1000, "g")}, Result: reg("t1")},
		{Line: 5, Func: "main", Block: "b", Opcode: trace.OpGetElementPtr, DynID: 3,
			Ops:    []trace.Operand{ptr(1, 0x1000, "g")},
			Result: &trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(0x1320), IsReg: true, Name: "t2"}},
	}
	spec := LoopSpec{Function: "main", StartLine: 4, EndLine: 6}
	want, err := Analyze(recs, spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.MLI) != 1 || want.MLI[0].SizeBytes != 8 {
		t.Fatalf("offline baseline footprint wrong: %+v", want.MLI)
	}
	eng, err := NewEngine(spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		eng.Observe(&recs[i])
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, "ref-no-growth", want, got)
}

// TestEngineObserverBufferReuse: the Observer contract allows emitters to
// reuse their record and operand buffers between calls (allocation-free
// tracers do), so the engine must keep nothing of a record past the call,
// not even of one whose region it decides later. haloSource forks often
// (its spec excludes the loop's back-edge line).
func TestEngineObserverBufferReuse(t *testing.T) {
	recs, mod := traceOf(t, haloSource)
	opts := DefaultOptions()
	opts.Module = mod
	want, err := Analyze(recs, haloSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(haloSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var scratch trace.Record
	var opsBuf []trace.Operand
	var resBuf trace.Operand
	for i := range recs {
		r := &recs[i]
		scratch = *r
		opsBuf = append(opsBuf[:0], r.Ops...)
		scratch.Ops = opsBuf
		if r.Result != nil {
			resBuf = *r.Result
			scratch.Result = &resBuf
		}
		eng.Observe(&scratch)
		// Poison the reused buffers: anything the engine retained by
		// reference is now garbage.
		for j := range opsBuf {
			opsBuf[j] = trace.Operand{}
		}
		resBuf = trace.Operand{}
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, "reused-buffers", want, got)
}

// manyInputs builds one AnalyzeMany input per source kind over the same
// three example programs, exercising every dispatch path.
func manyInputs(t *testing.T, dir string) ([]Input, []*Result) {
	t.Helper()
	cases := []struct {
		name string
		src  string
		spec LoopSpec
	}{
		{"fig4", fig4Source, fig4Spec},
		{"cg", cgSource, cgSpec},
		{"halo", haloSource, haloSpec},
	}
	var inputs []Input
	var want []*Result
	for i, tc := range cases {
		recs, mod := traceOf(t, tc.src)
		opts := DefaultOptions()
		opts.Module = mod
		res, err := Analyze(recs, tc.spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
		in := Input{Name: tc.name, Spec: tc.spec, Opts: opts}
		switch i {
		case 0:
			in.Records = recs
		case 1:
			in.Data = trace.EncodeAll(recs)
		case 2:
			path := filepath.Join(dir, tc.name+".trace")
			if err := os.WriteFile(path, trace.EncodeBinary(recs), 0o644); err != nil {
				t.Fatal(err)
			}
			in.Path = path
		}
		inputs = append(inputs, in)
	}
	return inputs, want
}

// TestAnalyzeManyMatchesSerial: concurrent engines over independent
// traces (every source kind) match per-trace serial analysis at several
// pool sizes.
func TestAnalyzeManyMatchesSerial(t *testing.T) {
	inputs, want := manyInputs(t, t.TempDir())
	for _, workers := range []int{0, 1, 2, 8} {
		results, err := AnalyzeMany(inputs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != len(inputs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(inputs))
		}
		for i, got := range results {
			requireEquivalent(t, fmt.Sprintf("workers=%d/%s", workers, inputs[i].Name), want[i], got)
		}
	}
}

// TestAnalyzeManyPartialFailure: one bad input must not hide the other
// results; its error carries the input's label.
func TestAnalyzeManyPartialFailure(t *testing.T) {
	inputs, _ := manyInputs(t, t.TempDir())
	inputs[1].Data = []byte("not a trace\n")
	results, err := AnalyzeMany(inputs, 2)
	if err == nil {
		t.Fatal("corrupt input did not fail")
	}
	if !strings.Contains(err.Error(), inputs[1].Name) {
		t.Errorf("error %q does not name the failing input %q", err, inputs[1].Name)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("healthy inputs lost their results")
	}
	if results[1] != nil {
		t.Error("failed input produced a result")
	}

	var empty Input
	if _, err := (&empty).analyze(); err == nil {
		t.Error("input with no source should fail")
	}
}

// TestAnalyzeManyEmpty: no inputs, no work, no deadlock.
func TestAnalyzeManyEmpty(t *testing.T) {
	results, err := AnalyzeMany(nil, 8)
	if err != nil || results != nil {
		t.Errorf("AnalyzeMany(nil) = %v, %v", results, err)
	}
}

// TestRegionString covers the region labels used in diagnostics.
func TestRegionString(t *testing.T) {
	for reg, want := range map[Region]string{RegionBefore: "A", RegionLoop: "B", RegionAfter: "C"} {
		if got := reg.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", reg, got, want)
		}
	}
}

// ---- ObserveBatch under every batching ----

// recycledFeed feeds recs to observe in batches ending at the given cut
// points (ascending stream indices; the stream's end is implied), the way
// the interpreter's emitter does: through one trace.RecordBatch that is
// reset for every batch, with each batch's records and operands
// overwritten as soon as the call returns. Anything the callee kept by
// reference is garbage afterwards.
func recycledFeed(recs []trace.Record, cuts []int, observe func([]trace.Record, []uint32)) {
	var b trace.RecordBatch
	start := 0
	for _, end := range append(append([]int(nil), cuts...), len(recs)) {
		if end <= start {
			continue
		}
		b.Reset()
		for i := start; i < end; i++ {
			r := &recs[i]
			for _, o := range r.Ops {
				b.AppendOperand(o)
			}
			if r.Result != nil {
				b.AppendOperand(*r.Result)
			}
			hdr := *r
			b.AppendRecord(hdr, r.Result != nil)
		}
		observe(b.Recs, nil)
		for i := range b.Recs {
			for j := range b.Recs[i].Ops {
				b.Recs[i].Ops[j] = trace.Operand{Name: "poison"}
			}
			if b.Recs[i].Result != nil {
				*b.Recs[i].Result = trace.Operand{Name: "poison"}
			}
			b.Recs[i] = trace.Record{Func: "poison"}
		}
		start = end
	}
}

func everyN(n, total int) []int {
	var cuts []int
	for c := n; c < total; c += n {
		cuts = append(cuts, c)
	}
	return cuts
}

// TestEngineAnyBatching: however the stream is cut into batches, and
// though every batch is poisoned once the engine returns, the engine
// gives the reference pass's offline result field for field — explain
// trail included — so a fork keeps nothing of the records it decides
// later. (TestPassMatchesReferenceRandom cuts with BuildDDG on.) (The 14-port version is
// harness.TestObserveBatchEquivalenceAllBenchmarks.)
func TestEngineAnyBatching(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		spec LoopSpec
	}{
		{"fig4", fig4Source, fig4Spec},
		{"cg", cgSource, cgSpec},
		{"halo", haloSource, haloSpec},
	} {
		recs, mod := traceOf(t, tc.src)
		opts := Options{IncludeGlobals: true, Explain: true, Module: mod}
		want, err := refAnalyze(recs, tc.spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		batchings := map[string][]int{"whole": nil}
		for _, n := range []int{1, 2, 7, 512} {
			batchings[fmt.Sprintf("every-%d", n)] = everyN(n, len(recs))
		}
		rng := rand.New(rand.NewSource(1))
		for s := 0; s < 20; s++ {
			var cuts []int
			for c := 0; c < len(recs); c += 1 + rng.Intn(1+rng.Intn(900)) {
				cuts = append(cuts, c)
			}
			batchings[fmt.Sprintf("random-%d", s)] = cuts
		}
		for label, cuts := range batchings {
			e, err := NewEngine(tc.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			recycledFeed(recs, cuts, e.ObserveBatch)
			got, err := e.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range referenceDiff(want, got) {
				t.Errorf("%s/%s: %s", tc.name, label, d)
			}
		}
	}
}

// TestEngineLoopNeverStartsOrNeverCloses: batches that contain no in-MCLR
// record at all. A loop that never starts is a *NoLoopError counting every
// record; a stream that ends inside an excursion resolves the open run as
// region C, like the offline sweep over the same truncated records.
func TestEngineLoopNeverStartsOrNeverCloses(t *testing.T) {
	recs, mod := traceOf(t, haloSource)
	opts := DefaultOptions()
	opts.Module = mod

	// The longest run away from the MCLR after the loop has started.
	inRange := func(r *trace.Record) bool {
		return r.Func == haloSpec.Function && r.Line >= haloSpec.StartLine && r.Line <= haloSpec.EndLine
	}
	bestStart, bestLen, runStart, started := 0, 0, 0, false
	for i := range recs {
		if inRange(&recs[i]) {
			if started && i-runStart > bestLen {
				bestStart, bestLen = runStart, i-runStart
			}
			started, runStart = true, i+1
		}
	}
	if bestLen < 2 {
		t.Fatalf("halo trace has no excursion to cut (longest %d)", bestLen)
	}
	truncated := recs[:bestStart+bestLen/2]

	for _, batch := range []int{1, 7, 512, len(recs)} {
		eng, err := NewEngine(LoopSpec{Function: "main", StartLine: 900, EndLine: 950}, opts)
		if err != nil {
			t.Fatal(err)
		}
		recycledFeed(recs, everyN(batch, len(recs)), eng.ObserveBatch)
		_, err = eng.Finish()
		var nle *NoLoopError
		if !errors.As(err, &nle) || nle.Records != len(recs) {
			t.Errorf("batch %d: loop never starts: err = %v, want *NoLoopError over %d records", batch, err, len(recs))
		}

		want, err := Analyze(truncated, haloSpec, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng, err = NewEngine(haloSpec, opts)
		if err != nil {
			t.Fatal(err)
		}
		recycledFeed(truncated, everyN(batch, len(truncated)), eng.ObserveBatch)
		got, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		requireEquivalent(t, fmt.Sprintf("batch %d: stream ends inside an excursion", batch), want, got)
		if got.Stats.RegionC != bestLen/2 {
			t.Errorf("batch %d: region C = %d records, want the %d of the open excursion", batch, got.Stats.RegionC, bestLen/2)
		}
	}
}
