package interp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// The emitter contract: the machine writes every record in place into its
// instruction's template, so a record is valid only for the call that
// delivers it, every
// sink sees the same records, and the records themselves are those of the
// allocating emitter this one replaced.

// goldenTraces was recorded from the commit before the emitter recycled
// its storage and lowering pre-resolved names and slots: per port at its
// DefaultScale, the SHA-256 of the text trace, its record count, and the
// records emitted before a BlockHook fails on the 301st block entry.
var goldenTraces = map[string]struct {
	sha256    string
	records   int64
	failAt300 int
}{
	"Himeno":  {"257dc16a8ffab214d8ccff4efae011e9e6306f5cb0b184f21211a099967763f9", 20984, 2900},
	"HPCCG":   {"69cd5c7a9696e03e0765b44cb809cdda115ca2dff0da7a9a29bcb4c89a32a153", 52462, 2611},
	"CG":      {"62da126da173ac1348be671bbf57ddac72f816c1d58e770dfcc63ef13cc80dad", 45920, 1516},
	"MG":      {"e9aa76f2d1541d0ee865b42f505de1ef3f72adb9be46ec52a2eeff94449aaace", 18730, 2578},
	"FT":      {"e12a15632b8e5cf6a5507866a7731d0fa6bedf543afcfb0636a65e05538c95d0", 11994, 2469},
	"SP":      {"12d08d3df2e9f8f0822ac148b41f66bbd95fa9bd4a92a23038789d0395834b71", 22908, 2386},
	"EP":      {"5fdf33e192c570963655ccca206d9730dea56288916fbdb4bd5415b664aaeded", 15383, 1773},
	"IS":      {"c38efa6e5f1e70f4be042d276ff382409f41f1eb395c18bbb448911b43e85e39", 10516, 1456},
	"BT":      {"38abc267ec88ca1b7be8024f880e98834ded37df8f22a57771288df090121dae", 32511, 2156},
	"LU":      {"bb5da7b27e5b46ee437f2733abe1f35c7d37cad35c8f42b59fbf964497eb05de", 29560, 3644},
	"CoMD":    {"dc39e7d7f5751454d9ab253c4cb371bb2d79ac35fce5e08244ec40c082c9d9ea", 57320, 1858},
	"miniAMR": {"9712dd6ed6d7189ba9d88db1425aca21e330df141e3e4ddc2efa4b810d8a78e4", 10275, 1914},
	"AMG":     {"98af6b292d592c9cc035bc5e173cf26c3e39ba1baed5003b88d54044c4a52600", 83885, 2032},
	"HACC":    {"786ba6856a2e638ddd9eda7830a81778a02bb13ca7b4ed82712a2d8b442156a8", 35047, 2543},
}

func compilePort(t *testing.T, b *progs.Benchmark) *ir.Module {
	t.Helper()
	mod, err := Compile(b.Source(0))
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return mod
}

// TestGoldenTraceHashes: resolving operand names, parameter indices and
// register slots when the IR is built must not alter a trace by one byte.
func TestGoldenTraceHashes(t *testing.T) {
	if len(progs.All()) != len(goldenTraces) {
		t.Fatalf("%d ports, %d golden traces", len(progs.All()), len(goldenTraces))
	}
	for _, b := range progs.All() {
		want := goldenTraces[b.Name]
		h := sha256.New()
		w := trace.NewWriter(h)
		if _, err := TraceProgramTo(compilePort(t, b), w); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want.sha256 || w.Count() != want.records {
			t.Errorf("%s: text trace %s (%d records), want %s (%d)", b.Name, got, w.Count(), want.sha256, want.records)
		}
	}
}

// TestTraceProgramOwnsItsRecords: TraceProgram's records must not alias
// the emitter's templates, which every emission rewrites. Field for field they equal the records
// decoded from TraceProgramBinary's bytes, which were serialized while
// each record was still valid.
func TestTraceProgramOwnsItsRecords(t *testing.T) {
	for _, b := range progs.All() {
		mod := compilePort(t, b)
		recs, _, err := TraceProgram(mod)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		bin, _, err := TraceProgramBinary(mod)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want, err := trace.ParseBinary(bin)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, binary trace has %d", b.Name, len(recs), len(want))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], want[i]) {
				t.Fatalf("%s: record %d = %+v, want %+v", b.Name, i, recs[i], want[i])
			}
		}
	}
}

// cloneSink is a plain Observer; batchSink is a BatchObserver. Both keep
// what they are given the only way the contract allows, batchSink the
// template ids too.
type cloneSink struct{ recs []trace.Record }

func (s *cloneSink) Observe(r *trace.Record) { s.recs = append(s.recs, r.Clone()) }

type batchSink struct {
	cloneSink
	batches int
	ids     []uint32
}

func (s *batchSink) ObserveBatch(recs []trace.Record, ids []uint32) {
	s.batches++
	for i := range recs {
		s.Observe(&recs[i])
	}
	s.ids = append(s.ids, ids...)
}

// TestFailStopDeliversEveryEmittedRecord: the tracer hands every record
// on as it is emitted, one ObserveBatch call each, so when a hook aborts
// Run every kind of sink holds exactly the records emitted before the
// failure — the count the per-record emitter delivered,
// and a prefix of the full trace. bsp.AnalyzeRank calls Finish after
// ErrFailStop and depends on it.
func TestFailStopDeliversEveryEmittedRecord(t *testing.T) {
	failing := func(mod *ir.Module) *Machine {
		m := New(mod)
		blocks := 0
		m.BlockHook = func(*Machine, *Frame, *ir.Block) error {
			if blocks++; blocks > 300 {
				return ErrFailStop
			}
			return nil
		}
		return m
	}
	for _, b := range progs.All() {
		mod := compilePort(t, b)
		want := goldenTraces[b.Name].failAt300
		full, _, err := TraceProgram(mod)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}

		var plain cloneSink
		m := failing(mod)
		m.TraceInto(&plain)
		if _, err := m.Run(); !errors.Is(err, ErrFailStop) {
			t.Fatalf("%s: plain observer: err = %v, want ErrFailStop", b.Name, err)
		}
		var batched batchSink
		m = failing(mod)
		m.TraceInto(&batched)
		if _, err := m.Run(); !errors.Is(err, ErrFailStop) {
			t.Fatalf("%s: batch observer: err = %v, want ErrFailStop", b.Name, err)
		}
		var sunk cloneSink
		if _, err := failing(mod).traceTo(writerSink{&sunk}); !errors.Is(err, ErrFailStop) {
			t.Fatalf("%s: TraceProgramTo: err = %v, want ErrFailStop", b.Name, err)
		}

		if batched.batches != want {
			t.Errorf("%s: %d records arrived in %d batches", b.Name, want, batched.batches)
		}
		for label, got := range map[string][]trace.Record{"plain observer": plain.recs, "batch observer": batched.recs, "TraceProgramTo": sunk.recs} {
			if len(got) != want {
				t.Errorf("%s: %s got %d records before the failure, want %d", b.Name, label, len(got), want)
				continue
			}
			if !reflect.DeepEqual(got, full[:want]) {
				t.Errorf("%s: %s records are not the first %d of the full trace", b.Name, label, want)
			}
		}
	}
}

// writerSink adapts an Observer to trace.RecordWriter.
type writerSink struct{ obs Observer }

func (w writerSink) Write(r *trace.Record) error { w.obs.Observe(r); return nil }
func (w writerSink) Flush() error                { return nil }
func (w writerSink) Count() int64                { return 0 }

// v1Fixture is IS's ACTB trace at DefaultScale in the legacy version-1
// layout, written by the version-1 writer before version 2 existed.
const v1Fixture = "../trace/testdata/is_v1.actb"

// TestV1FixtureDecodesToGoldenText: the version-1 fixture still decodes
// to IS's golden trace — re-encoded as text it has goldenTraces' hash and
// record count — and so does the same trace written again as version 2.
func TestV1FixtureDecodesToGoldenText(t *testing.T) {
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenTraces["IS"]
	recs, err := trace.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := trace.ParseBytes(trace.EncodeBinary(recs))
	if err != nil {
		t.Fatal(err)
	}
	for label, recs := range map[string][]trace.Record{"version 1": recs, "version 2": again} {
		sum := sha256.Sum256(trace.EncodeAll(recs))
		if got := hex.EncodeToString(sum[:]); got != want.sha256 || int64(len(recs)) != want.records {
			t.Errorf("%s: text trace %s (%d records), want %s (%d)", label, got, len(recs), want.sha256, want.records)
		}
	}
}

// staticHalf renders what a template id stands for: the record with its
// DynID and the values of its register operands zeroed.
func staticHalf(r *trace.Record) string {
	c := r.Clone()
	c.DynID = 0
	for i := range c.Ops {
		if c.Ops[i].IsReg {
			c.Ops[i].Value = trace.Value{}
		}
	}
	if c.Result != nil && c.Result.IsReg {
		c.Result.Value = trace.Value{}
	}
	return c.String()
}

// sameStaticHalves reports the first record whose static half differs
// from that of the first record with its template id. Records without a
// template (trace.NoTemplate) share no id.
func sameStaticHalves(recs []trace.Record, ids []uint32) error {
	if len(ids) != len(recs) {
		return fmt.Errorf("%d template ids for %d records", len(ids), len(recs))
	}
	first := map[uint32]string{}
	for i := range recs {
		if ids[i] == trace.NoTemplate {
			continue
		}
		h := staticHalf(&recs[i])
		if f, ok := first[ids[i]]; !ok {
			first[ids[i]] = h
		} else if f != h {
			return fmt.Errorf("record %d: template %d is %q, and %q before", i, ids[i], h, f)
		}
	}
	return nil
}

// TestTemplateIDsNameStaticHalves is the template id contract on every
// port, for every producer of ids: in the batches TraceProgramInto hands a
// BatchObserver, in those the ACTB version-2 decoder fills and in those
// the text decoder fills — over the trace in memory, and fed in random
// byte cuts so that templates are made and used across window refills —
// records that share an id have one static half, every batch has an id
// per record, and nearly every record has a template.
func TestTemplateIDsNameStaticHalves(t *testing.T) {
	for _, b := range progs.All() {
		mod := compilePort(t, b)
		var sink batchSink
		if _, err := TraceProgramInto(mod, &sink); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := sameStaticHalves(sink.recs, sink.ids); err != nil {
			t.Errorf("%s: tracer: %v", b.Name, err)
		}
		bin, _, err := TraceProgramBinary(mod)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var text bytes.Buffer
		if _, err := TraceProgramTo(mod, trace.NewRecordWriter(&text, trace.FormatText)); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, in := range []struct {
			name string
			data []byte
			fed  bool
		}{
			{"ACTB decoder", bin, false},
			{"text decoder", text.Bytes(), false},
			{"fed text decoder", text.Bytes(), true},
		} {
			var rd trace.Reader
			if in.fed {
				fr := trace.NewFedReader()
				rng := rand.New(rand.NewSource(int64(len(in.data))))
				for p := 0; p < len(in.data); {
					n := min(len(in.data)-p, 1+rng.Intn(64<<10))
					fr.Feed(in.data[p : p+n])
					p += n
				}
				fr.CloseFeed()
				rd = fr
			} else if rd, _, err = trace.NewBytesReader(in.data); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			recs, ids, err := drainTemplated(rd)
			if err == nil {
				err = sameStaticHalves(recs, ids)
			}
			none := 0
			for _, id := range ids {
				if id == trace.NoTemplate {
					none++
				}
			}
			switch {
			case err != nil:
				t.Errorf("%s: %s: %v", b.Name, in.name, err)
			case len(recs) != int(goldenTraces[b.Name].records):
				t.Errorf("%s: %s: %d records, want %d", b.Name, in.name, len(recs), goldenTraces[b.Name].records)
			case none*10 > len(recs):
				// A program repeats a few hundred shapes: all but their first
				// sightings have a template.
				t.Errorf("%s: %s: %d of %d records without a template", b.Name, in.name, none, len(recs))
			}
		}
	}
}

// drainTemplated reads rd to its end, checking that it hands on a template
// id per record, and returns the records, cloned, and ids.
func drainTemplated(rd trace.Reader) ([]trace.Record, []uint32, error) {
	var b trace.RecordBatch
	if err := rd.ReadInto(b.Add); err != nil {
		return nil, nil, err
	}
	if len(b.TemplateIDs) != len(b.Recs) {
		return nil, nil, fmt.Errorf("%d template ids for %d records", len(b.TemplateIDs), len(b.Recs))
	}
	return b.Recs, b.TemplateIDs, nil
}
