package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"autocheck/internal/trace"
)

// fig4Text is the Fig. 4 program's trace, repeated to n records or more,
// as text: several ring slots' worth.
func fig4Text(t *testing.T, n int) ([]trace.Record, []byte) {
	t.Helper()
	base, _ := traceOf(t, fig4Source)
	var recs []trace.Record
	for len(recs) < n {
		recs = append(recs, base...)
	}
	return recs, trace.EncodeAll(recs)
}

// schedule analyzes in, a text trace, as AnalyzeBytes does — or, with
// a path, as AnalyzeFile does, streamed from disk — on the schedule named:
// the engine fed on the decoder's goroutine (serial) or across a ring
// from rings (ahead), whatever the number of Ps.
func schedule(in []byte, path string, ahead bool, spec LoopSpec, opts Options) (*Result, error) {
	var rd trace.Reader
	var err error
	if path == "" {
		rd, _, err = trace.NewBytesReader(in)
	} else {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		defer f.Close()
		rd, _, err = trace.NewAutoReader(f)
	}
	if err != nil {
		return nil, err
	}
	e := (&scratch{}).engine(spec, opts)
	if ahead {
		err = rings.Get().(*readAhead).run(rd, e.feed)
	} else {
		err = rd.ReadInto(e.feed)
	}
	if err != nil {
		return nil, err
	}
	return e.result()
}

// requireSameOutcome holds a read-ahead analysis to the serial one: the
// same error string, or the same result.
func requireSameOutcome(t *testing.T, label string, want, got *Result, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error %v, want the serial schedule's %v", label, gotErr, wantErr)
	}
	if wantErr == nil {
		requireEquivalent(t, label, want, got)
	}
}

// settleGoroutines waits for the goroutine count to come back to n: a
// joined decode goroutine may still be returning when run does.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != n {
		t.Fatalf("%d goroutines after the analyses, %d before", got, n)
	}
}

// TestReadAheadMatchesSerial holds the read-ahead schedule to the serial
// one on text traces at the edges of the ring: empty, one record, a slot
// and a record, and a decode error in the middle of a trace — before the
// loop, in the first slot and several slots in — in memory and on disk.
// AnalyzeBytes and AnalyzeFile, on whichever schedule the number of Ps
// picks, agree with both. Every call leaves no goroutine behind.
func TestReadAheadMatchesSerial(t *testing.T) {
	recs, data := fig4Text(t, 5*aheadRecords)
	one := trace.EncodeAll(recs[:1])
	slotAndOne := trace.EncodeAll(recs[:aheadRecords+1])
	// A bad value in the block of record i: the decoder stops there.
	corrupt := func(i int) []byte {
		at := bytes.Index(data, []byte(fmt.Sprintf(",%d\n", recs[i].DynID)))
		if at < 0 {
			t.Fatalf("record %d's header not found", i)
		}
		line := at + bytes.IndexByte(data[at+1:], '\n') + 2 // the block's first operand line
		bad := append([]byte(nil), data...)
		copy(bad[line:], "1,x")
		return bad
	}
	cases := map[string][]byte{
		"empty":           {},
		"one record":      one,
		"a slot and one":  slotAndOne,
		"whole":           data,
		"error at 3":      corrupt(3),
		"error at 700":    corrupt(700),
		"error at 3000":   corrupt(3000),
		"error past last": append(append([]byte(nil), data...), "0,bad\n"...),
	}
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for name, in := range cases {
		for _, spec := range []LoopSpec{fig4Spec, {Function: recs[0].Func, StartLine: recs[0].Line, EndLine: recs[0].Line}} {
			label := fmt.Sprintf("%s, loop %d-%d", name, spec.StartLine, spec.EndLine)
			opts := DefaultOptions()
			path := filepath.Join(dir, "t.trace")
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, from := range []struct{ name, path string }{{"bytes", ""}, {"file", path}} {
				label := label + " " + from.name
				want, wantErr := schedule(in, from.path, false, spec, opts)
				got, gotErr := schedule(in, from.path, true, spec, opts)
				requireSameOutcome(t, label, want, got, wantErr, gotErr)
				if from.path == "" {
					got, gotErr = AnalyzeBytes(in, spec, opts)
				} else {
					got, gotErr = AnalyzeFile(path, spec, opts)
				}
				requireSameOutcome(t, label+" (entry point)", want, got, wantErr, gotErr)
			}
		}
	}
	if _, err := AnalyzeBytes(corrupt(3000), fig4Spec, DefaultOptions()); err == nil {
		t.Fatal("a corrupt trace analyzed without an error")
	}
	settleGoroutines(t, before)
}

// handed is what a sink was handed, record by record: its template id and
// its text.
func handed(out *[]string) trace.Sink {
	return func(recs []trace.Record, ids []uint32) {
		for i := range recs {
			id := trace.NoTemplate
			if i < len(ids) {
				id = ids[i]
			}
			*out = append(*out, fmt.Sprintf("%d %s", id, recs[i].String()))
		}
	}
}

// TestReadAheadHandsOnTheDecodersRecords holds the ring to the decoder:
// a sink fed across it gets the records, with their template ids, that
// ReadInto hands it, in order — on random streams whose wide records have
// no template, and through one ring reused from trace to trace.
func TestReadAheadHandsOnTheDecodersRecords(t *testing.T) {
	ra := rings.New().(*readAhead)
	for seed := int64(1); seed <= 20; seed++ {
		recs := randomStream(seed)
		if seed%3 == 0 {
			widen(recs)
		}
		data := trace.EncodeAll(recs)
		var want, got []string
		rd, _, err := trace.NewBytesReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.ReadInto(handed(&want)); err != nil {
			t.Fatal(err)
		}
		rd, _, _ = trace.NewBytesReader(data)
		if err := ra.run(rd, handed(&got)); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records across the ring, %d from the decoder", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d across the ring:\n%s\nfrom the decoder:\n%s", seed, i, got[i], want[i])
			}
		}
	}
}

// panicReader hands on n records of recs, then panics.
type panicReader struct {
	recs []trace.Record
	n    int
}

func (p panicReader) ReadInto(sink trace.Sink) error {
	for i := 0; i < p.n; i++ {
		sink(p.recs[i:i+1], []uint32{trace.NoTemplate})
	}
	panic("decoder broke")
}

// TestReadAheadPanics holds the ring's two panics to their rules: a panic
// on the decode goroutine is raised again on the caller's, and one of the
// sink's stops the decode; either way the goroutine is joined, and the
// ring then reads the next trace whole.
func TestReadAheadPanics(t *testing.T) {
	recs, data := fig4Text(t, 5*aheadRecords)
	before := runtime.NumGoroutine()
	ra := rings.New().(*readAhead)
	recovered := func(fn func()) (p any) {
		defer func() { p = recover() }()
		fn()
		return nil
	}
	for _, n := range []int{0, 10, 3 * aheadRecords} {
		p := recovered(func() { ra.run(panicReader{recs, n}, func([]trace.Record, []uint32) {}) })
		if p != "decoder broke" {
			t.Fatalf("decoder panic after %d records: the caller recovered %v", n, p)
		}
	}
	for _, n := range []int{0, 10, 2*aheadRecords + 5} {
		seen := 0
		p := recovered(func() {
			rd, _, _ := trace.NewBytesReader(data)
			ra.run(rd, func(recs []trace.Record, _ []uint32) {
				if seen += len(recs); seen > n {
					panic("sink broke")
				}
			})
		})
		if p != "sink broke" {
			t.Fatalf("sink panic after %d records: the caller recovered %v", n, p)
		}
	}
	var got []string
	rd, _, _ := trace.NewBytesReader(data)
	if err := ra.run(rd, handed(&got)); err != nil || len(got) != len(recs) {
		t.Fatalf("after the panics the ring handed on %d of %d records (%v)", len(got), len(recs), err)
	}
	settleGoroutines(t, before)
}
