package core

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// mliNames projects the MLI list to comparable identity tuples.
func mliNames(res *Result) []string {
	out := make([]string, len(res.MLI))
	for i, v := range res.MLI {
		out[i] = fmt.Sprintf("%s/%s@%x:%d", v.Fn, v.Name, v.Base, v.SizeBytes)
	}
	return out
}

// requireEquivalent asserts the parts of a Result that the paper's tables
// report are identical between two analysis paths.
func requireEquivalent(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Critical, got.Critical) {
		t.Errorf("%s: critical variables differ:\nwant %+v\ngot  %+v", label, want.Critical, got.Critical)
	}
	if !reflect.DeepEqual(mliNames(want), mliNames(got)) {
		t.Errorf("%s: MLI sets differ:\nwant %v\ngot  %v", label, mliNames(want), mliNames(got))
	}
	ws, gs := want.Stats, got.Stats
	if ws.Records != gs.Records || ws.RegionA != gs.RegionA || ws.RegionB != gs.RegionB || ws.RegionC != gs.RegionC {
		t.Errorf("%s: region stats differ: want %+v got %+v", label, ws, gs)
	}
}

// TestStreamEquivalence pins the tentpole invariant: analyses of
// caller-owned records and of both in-memory trace encodings produce
// identical results on the paper's Fig. 4 example (scanning from disk:
// TestAnalyzeFileStreaming).
func TestStreamEquivalence(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	opts := DefaultOptions()
	opts.Module = mod
	text := trace.EncodeAll(recs)
	bin := trace.EncodeBinary(recs)

	want, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for label, data := range map[string][]byte{"text": text, "binary": bin} {
		got, err := AnalyzeBytes(data, fig4Spec, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEquivalent(t, label, want, got)
		if got.Stats.TraceBytes != int64(len(data)) {
			t.Errorf("%s: TraceBytes = %d, want %d", label, got.Stats.TraceBytes, len(data))
		}
	}
}

// TestStreamEquivalenceDDG checks the streaming path also supports DDG
// construction identically.
func TestStreamEquivalenceDDG(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	opts := DefaultOptions()
	opts.Module = mod
	opts.BuildDDG = true
	want, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeBytes(trace.EncodeAll(recs), fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, "streaming+ddg", want, got)
	if got.Contracted == nil || want.Contracted == nil {
		t.Fatal("contracted DDG missing")
	}
	// Node IDs depend on contraction's internal iteration order, so
	// compare canonical content: the sorted node names and the sorted
	// R/W event multiset.
	if w, g := canonicalGraph(want.Contracted), canonicalGraph(got.Contracted); !reflect.DeepEqual(w, g) {
		t.Errorf("contracted DDGs differ:\nwant %v\ngot  %v", w, g)
	}
	if w, g := canonicalGraph(want.Complete), canonicalGraph(got.Complete); !reflect.DeepEqual(w, g) {
		t.Errorf("complete DDGs differ (%d vs %d entries)", len(w), len(g))
	}
}

func canonicalGraph(g *ddg.Graph) []string {
	var out []string
	for _, n := range g.Nodes() {
		out = append(out, fmt.Sprintf("node %s/%s", n.Name, n.Kind))
	}
	for _, e := range g.Events() {
		out = append(out, fmt.Sprintf("ev %s %v @%d", e.Node.Name, e.Kind, e.Time))
	}
	sort.Strings(out)
	return out
}

// TestAnalyzeFileStreaming exercises the never-load-the-file path over
// both encodings.
func TestAnalyzeFileStreaming(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	opts := DefaultOptions()
	opts.Module = mod
	want, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for label, data := range map[string][]byte{
		"text":   trace.EncodeAll(recs),
		"binary": trace.EncodeBinary(recs),
	} {
		path := filepath.Join(dir, "trace."+label)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeFile(path, fig4Spec, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEquivalent(t, "file-stream-"+label, want, got)
		if got.Stats.TraceBytes != int64(len(data)) {
			t.Errorf("%s: TraceBytes = %d, want %d", label, got.Stats.TraceBytes, len(data))
		}
	}
}

// TestStreamMissingLoop mirrors Analyze's error when the MCLR never
// executes.
func TestStreamMissingLoop(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	opts := DefaultOptions()
	opts.Module = mod
	_, err := AnalyzeBytes(trace.EncodeAll(recs), LoopSpec{Function: "nope", StartLine: 1, EndLine: 2}, opts)
	if err == nil {
		t.Fatal("streaming analysis of absent loop succeeded")
	}
}

// TestStreamPropagatesParseError ensures decode errors from mid-stream
// surface instead of truncating the analysis silently.
func TestStreamPropagatesParseError(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	data := trace.EncodeAll(recs)
	data = append(data, []byte("0,notanint,f,b,27,1\n")...)
	opts := DefaultOptions()
	if _, err := AnalyzeBytes(data, fig4Spec, opts); err == nil {
		t.Fatal("corrupt tail did not fail the streaming analysis")
	}
}

// TestStreamGlobalFootprintParity pins the footprint freeze: an unnamed
// access beyond a global's footprint after the loop must not grow the
// reported variable size (module 1 collects in regions A and B only),
// whichever source feeds the pass.
func TestStreamGlobalFootprintParity(t *testing.T) {
	mk := func(line int, fn string, op int, addr uint64, name string) trace.Record {
		return trace.Record{
			Line: line, Func: fn, Block: "b", Opcode: op, DynID: int64(line),
			Ops:    []trace.Operand{{Index: 1, Size: 64, Value: trace.PtrValue(addr), IsReg: true, Name: name}},
			Result: &trace.Operand{Index: 0, Size: 64, Value: trace.IntValue(1), IsReg: true, Name: "t"},
		}
	}
	recs := []trace.Record{
		mk(1, "main", trace.OpLoad, 0x1000, "g"), // region A: named global ref
		mk(5, "main", trace.OpLoad, 0x1000, "g"), // region B (loop lines 4-6)
		mk(9, "main", trace.OpLoad, 0x1020, ""),  // region C: unnamed far access
	}
	spec := LoopSpec{Function: "main", StartLine: 4, EndLine: 6}
	opts := DefaultOptions()
	want, err := Analyze(recs, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeBytes(trace.EncodeAll(recs), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireEquivalent(t, "global-footprint", want, got)
	if len(want.MLI) != 1 || want.MLI[0].SizeBytes != 8 || got.MLI[0].SizeBytes != 8 {
		t.Fatalf("footprint is not the 8 bytes regions A and B touched: records %+v, bytes %+v", want.MLI, got.MLI)
	}
}

// TestAnalyzeFileCapsRecords pins the one difference between the two
// trace-bytes entry points: AnalyzeFile streams the file through a bounded
// window, so a single record over 4 MiB is an error wrapping
// bufio.ErrTooLong, while AnalyzeBytes reads bytes already in memory and
// analyzes the same trace like Analyze does.
func TestAnalyzeFileCapsRecords(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	opts := DefaultOptions()
	opts.Module = mod
	// A region-A record whose function name alone is past the cap.
	long := trace.Record{Line: 1, Func: strings.Repeat("f", 4<<20+16), Block: "b", Opcode: trace.OpBr, DynID: 0}
	recs = append([]trace.Record{long}, recs...)
	want, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for label, data := range map[string][]byte{"text": trace.EncodeAll(recs), "binary": trace.EncodeBinary(recs)} {
		got, err := AnalyzeBytes(data, fig4Spec, opts)
		if err != nil {
			t.Fatalf("%s: AnalyzeBytes: %v", label, err)
		}
		requireEquivalent(t, label, want, got)
		path := filepath.Join(dir, "trace."+label)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeFile(path, fig4Spec, opts); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: AnalyzeFile error %v, want one wrapping bufio.ErrTooLong", label, err)
		}
	}
}
