package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autocheck/internal/trace"
)

// TestPassMatchesReferenceRandomACTB holds the pass on template rows to
// the reference pass: every stream TestPassMatchesReferenceRandom
// generates (its -pass.seeds flag sets how many) is written as ACTB and as
// text, and each encoding is analyzed by AnalyzeBytes and fed in random
// byte cuts to a fed reader whose batches, template ids with them, go to
// ObserveBatch — so the forks, excursions and epilogues of the
// generator run on shapes, resolved from the first record with each id,
// across every batch boundary, with ids from both decoders.
func TestPassMatchesReferenceRandomACTB(t *testing.T) {
	for seed := int64(1); seed <= int64(*passSeeds); seed++ {
		recs := randomStream(seed)
		if seed%7 == 0 {
			widen(recs)
		}
		for _, f := range []trace.Format{trace.FormatBinary, trace.FormatText} {
			data := trace.Encode(recs, f)
			cuts := randomCuts(rand.New(rand.NewSource(seed)), len(data))
			for _, globals := range []bool{true, false} {
				opts := Options{IncludeGlobals: globals, Explain: true, BuildDDG: true}
				label := fmt.Sprintf("seed %d %v globals=%v", seed, f, globals)
				want, wantErr := refAnalyze(recs, randomSpec, opts)
				got, gotErr := AnalyzeBytes(data, randomSpec, opts)
				if got != nil {
					got.Stats.TraceBytes = 0
				}
				checkReference(t, label+" AnalyzeBytes", want, got, wantErr, gotErr)
				got, gotErr = fedTemplated(data, cuts, randomSpec, opts)
				checkReference(t, label+" fed", want, got, wantErr, gotErr)
			}
			if t.Failed() {
				t.Fatalf("seed %d: %v of %d records analyzes differently from the reference", seed, f, len(recs))
			}
		}
	}
}

// widen gives every fifth arithmetic record with register inputs 70 more
// of them — more than an ACTB or text template takes, so they are records
// without a template id, which the engine steps on the register maps.
func widen(recs []trace.Record) {
	k := 0
	for i := range recs {
		r := &recs[i]
		if r.Opcode != trace.OpAdd || r.Result == nil || len(r.Ops) == 0 || !r.Ops[0].IsReg {
			continue
		}
		if k++; k%5 != 0 {
			continue
		}
		ops := append([]trace.Operand(nil), r.Ops...)
		for n := 0; n < 70; n++ {
			o := r.Ops[0]
			o.Index = len(ops) + 1
			ops = append(ops, o)
		}
		r.Ops = ops
	}
}

// fedTemplated analyzes a trace, ACTB or text, fed to a fed reader in the
// pieces that end at each cut, the way an ingest session takes its chunks.
func fedTemplated(data []byte, cuts []int, spec LoopSpec, opts Options) (*Result, error) {
	e, err := NewEngine(spec, opts)
	if err != nil {
		return nil, err
	}
	rd := trace.NewFedReader()
	var b trace.RecordBatch
	prev := 0
	for _, c := range append(cuts, len(data)) {
		rd.Feed(data[prev:c])
		prev = c
		if c == len(data) {
			rd.CloseFeed()
		}
		if err := trace.ForEachBatch(rd, &b, func(_ int, recs []trace.Record) error {
			if len(b.TemplateIDs) != len(recs) {
				return fmt.Errorf("batch of %d records has %d template ids", len(recs), len(b.TemplateIDs))
			}
			e.ObserveBatch(recs, b.TemplateIDs)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return e.Finish()
}

// ---- The access cache ----
//
// Each case below is a stream with one template — one static half, so one
// id — whose pointer operand moves across a change that could alter what
// its address resolves to. The shape keeps the template's last resolution
// (see resolution), so a stale one would hand the next access the wrong
// variable, the wrong instance of it, or skip a footprint's growth. Every
// case is analyzed on template ids fed a record per call, as the tracer
// feeds the engine, and as one batch, without ids, on keyed shapes
// (Analyze), and by the reference pass; all must agree field for field.

// cacheStream builds a hand-written record stream.
type cacheStream struct {
	recs []trace.Record
	dyn  int64
}

func (s *cacheStream) add(fn string, line, op int, res *trace.Operand, ops ...trace.Operand) {
	s.dyn++
	s.recs = append(s.recs, trace.Record{Line: line, Func: fn, Block: "b", Opcode: op, DynID: s.dyn, Ops: ops, Result: res})
}

func (s *cacheStream) alloca(fn string, line int, name string, base, size uint64) {
	s.add(fn, line, trace.OpAlloca,
		&trace.Operand{Size: int(size * 8), Value: trace.PtrValue(base), IsReg: true, Name: name},
		trace.Operand{Index: 1, Size: 64, Value: trace.IntValue(1)})
}

// load reads through the pointer register ptr, which a GEP on the same
// line has just computed from the same address: its result resolves too.
// A register's name is a number, as the tracer's are, unless the test
// means the access to name a variable.
func (s *cacheStream) load(fn string, line int, ptr string, addr uint64) {
	s.add(fn, line, trace.OpGetElementPtr, &trace.Operand{Size: 64, Value: trace.PtrValue(addr), IsReg: true, Name: ptr},
		ptrOp(1, ptr, true, addr), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(0)})
	s.add(fn, line, trace.OpLoad, resOp("9"), ptrOp(1, ptr, true, addr))
}

func (s *cacheStream) store(fn string, line int, ptr string, addr uint64) {
	s.add(fn, line, trace.OpStore, nil, regOp(1, "9"), ptrOp(2, ptr, true, addr))
}

// name references the global name at base directly, as a record naming
// it does.
func (s *cacheStream) name(fn string, line int, name string, base uint64) {
	s.add(fn, line, trace.OpLoad, resOp("8"), ptrOp(1, name, false, base))
}

// staticIDs numbers recs by static half: every field but DynID and the
// values of register operands.
func staticIDs(recs []trace.Record) []uint32 {
	ids := make([]uint32, len(recs))
	seen := make(map[string]uint32)
	for i := range recs {
		r := &recs[i]
		key := fmt.Sprintf("%s|%s|%d|%d", r.Func, r.Block, r.Line, r.Opcode)
		ops := r.Ops
		if r.Result != nil {
			ops = append(ops[:len(ops):len(ops)], *r.Result)
		}
		for _, o := range ops {
			key += fmt.Sprintf("|%d,%d,%v,%q,%d", o.Index, o.Size, o.IsReg, o.Name, o.Value.Kind)
			if !o.IsReg {
				key += o.Value.String()
			}
		}
		id, ok := seen[key]
		if !ok {
			id = uint32(len(seen))
			seen[key] = id
		}
		ids[i] = id
	}
	return ids
}

// checkCacheCase holds the engine on template ids, fed a record at a time
// and in one batch, and without ids, on keyed shapes, to the reference.
func checkCacheCase(t *testing.T, label string, recs []trace.Record) {
	t.Helper()
	ids := staticIDs(recs)
	for _, globals := range []bool{true, false} {
		opts := Options{IncludeGlobals: globals, Explain: true, BuildDDG: true}
		l := fmt.Sprintf("%s globals=%v", label, globals)
		want, wantErr := refAnalyze(recs, randomSpec, opts)
		got, gotErr := Analyze(recs, randomSpec, opts)
		checkReference(t, l+" maps", want, got, wantErr, gotErr)
		e, _ := NewEngine(randomSpec, opts)
		e.ObserveBatch(recs, ids)
		got, gotErr = e.Finish()
		checkReference(t, l+" ids, one batch", want, got, wantErr, gotErr)
		e, _ = NewEngine(randomSpec, opts)
		for i := range recs {
			e.ObserveBatch(recs[i:i+1], ids[i:i+1])
		}
		got, gotErr = e.Finish()
		checkReference(t, l+" ids, a record per call", want, got, wantErr, gotErr)
	}
}

// TestAccessCacheIsExact runs the cases, each a pointer template moving
// across one change that could make its last resolution stale.
func TestAccessCacheIsExact(t *testing.T) {
	// Main's locals m and n, and a global G, are read before the loop (lines
	// 1-9) so that the loop's reads make them MLI variables.
	prologue := func(s *cacheStream) {
		s.alloca("main", 1, "m", 0x7fc0, 16)
		s.alloca("main", 1, "n", 0x7fd0, 8)
		s.name("main", 2, "G", 0x1000)
		s.load("main", 3, "11", 0x7fc0)
		s.load("main", 3, "11", 0x7fd0)
		s.store("main", 4, "13", 0x1008)
	}
	cases := []struct {
		name string
		body func(s *cacheStream)
	}{
		{"stack reuse in the loop function", func(s *cacheStream) {
			// m is re-allocated at its base with another size, and n and w
			// over its old span: the template's address stays put while the
			// variable, or the instance, under it changes.
			for i := range 3 {
				s.load("main", 10, "11", 0x7fc8)
				s.alloca("main", 11, "m", 0x7fc0, 8)
				s.load("main", 10, "11", 0x7fc8)
				s.alloca("main", 11, "n", 0x7fc8, 8)
				s.load("main", 10, "11", 0x7fc8)
				s.store("main", 12, "12", 0x7fc0)
				s.alloca("main", 11, "w", 0x7fc0, uint64(16+8*i))
				s.load("main", 10, "11", 0x7fc8)
				s.alloca("main", 11, "m", 0x7fc0, 16)
			}
		}},
		{"a local re-allocated in place", func(s *cacheStream) {
			// Each iteration allocates m again with the span it had: the
			// template's address stays in the span, but the variable is a
			// new instance, the one the MLI set must report.
			for range 3 {
				s.alloca("main", 11, "m", 0x7fc0, 16)
				s.load("main", 10, "11", 0x7fc8)
				s.store("main", 12, "12", 0x7fc0)
			}
		}},
		{"a callee re-entered", func(s *cacheStream) {
			// f's t comes back at one base with another size each call, and
			// its neighbour u over t's old end; f reads through one template
			// of numbered pointers and one that names t, which finds t's span
			// or, past u, names a global t.
			for i := range 4 {
				s.load("main", 10, "11", 0x7fc0)
				size := uint64(8 + 16*(i%2))
				s.alloca("f", 50, "t", 0x6000, size)
				s.alloca("f", 50, "u", 0x6000+size, 8)
				for _, off := range []uint64{0, 8, 16, 8, 24} {
					s.load("f", 51, "17", 0x6000+off)
					s.store("f", 52, "18", 0x6000+off)
					s.load("f", 53, "t", 0x6000+off)
				}
			}
			s.load("main", 10, "11", 0x7fc0)
		}},
		{"a global grows past the cached end", func(s *cacheStream) {
			// G grows element by element through one template in the loop,
			// which reads back inside what it grew.
			for i := range 8 {
				s.load("main", 10, "14", 0x1000+8*uint64(i))
				s.load("main", 10, "14", 0x1008)
			}
		}},
		{"a global grows past the cached end in a fork", func(s *cacheStream) {
			// The same in excursions: line 21 opens a fork, which holds the
			// growth aside, and line 10 commits it.
			for i := range 8 {
				s.load("main", 10, "11", 0x7fc0)
				s.load("main", 21, "15", 0x1010+8*uint64(i))
				s.load("main", 21, "15", 0x1008)
			}
		}},
		{"a global named later truncates", func(s *cacheStream) {
			// The template's resolution of G spans [0x1000, 0x1040) when H is
			// first named at 0x1020, in the loop and then, for K, inside a
			// fork: the same address now belongs to H, and then to K.
			for i := range 8 {
				s.load("main", 10, "14", 0x1000+8*uint64(i))
			}
			s.load("main", 10, "14", 0x1028)
			s.name("main", 13, "H", 0x1020)
			s.load("main", 10, "14", 0x1028)
			s.load("main", 21, "16", 0x1038)
			s.name("main", 22, "K", 0x1030)
			s.load("main", 21, "16", 0x1038)
			s.load("main", 10, "14", 0x1038)
		}},
		{"an alloca over a global's range", func(s *cacheStream) {
			// A local allocated over addresses a global's resolution holds
			// takes them: locals resolve first.
			for i := range 4 {
				s.load("main", 10, "14", 0x1000+8*uint64(i))
			}
			s.load("main", 10, "14", 0x1010)
			s.alloca("main", 11, "v", 0x1010, 8)
			s.load("main", 10, "14", 0x1010)
			s.load("main", 10, "14", 0x1008)
		}},
	}
	for _, c := range cases {
		for _, tail := range []bool{false, true} {
			s := &cacheStream{}
			prologue(s)
			c.body(s)
			s.load("main", 20, "11", 0x7fc0)
			label := c.name
			if tail {
				// A fork the stream's end rolls back: the template grows G,
				// names a global over its range and reads both.
				label += ", rolled back at the end"
				s.load("main", 30, "14", 0x1000)
				s.load("main", 30, "14", 0x1060)
				s.load("main", 30, "14", 0x1010)
				s.name("main", 31, "L", 0x1010)
				s.load("main", 30, "14", 0x1018)
				s.load("main", 30, "14", 0x1068)
			}
			checkCacheCase(t, label, s.recs)
		}
	}
}

// TestSharedSourcesStayTheShapes: a row takes a shape's sources by
// reference, so a record of another shape — here one without an id, so a
// keyed one — that rewrites the same register must point the row at its
// own shape's sources, never write into the first's. Here register 30 is
// computed from 21 by a template and from 22 by records fed without ids,
// in turn, and each value is stored to i: only the template's stores are
// self-updates of i, which the provenance counts.
func TestSharedSourcesStayTheShapes(t *testing.T) {
	s := &cacheStream{}
	s.alloca("main", 1, "i", 0x7f00, 8)
	s.alloca("main", 1, "j", 0x7f08, 8)
	s.store("main", 2, "11", 0x7f00)
	s.store("main", 2, "12", 0x7f08)
	for range 4 {
		s.add("main", 10, trace.OpLoad, resOp("21"), ptrOp(1, "11", true, 0x7f00))
		s.add("main", 10, trace.OpLoad, resOp("22"), ptrOp(1, "12", true, 0x7f08))
		s.add("main", 11, trace.OpAdd, resOp("30"), regOp(1, "21"), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(1)})
		s.add("main", 12, trace.OpStore, nil, regOp(1, "30"), ptrOp(2, "11", true, 0x7f00))
		s.add("main", 13, trace.OpAdd, resOp("30"), regOp(1, "22"), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(1)})
		s.add("main", 14, trace.OpStore, nil, regOp(1, "30"), ptrOp(2, "11", true, 0x7f00))
		s.add("main", 15, trace.OpICmp, resOp("31"), regOp(1, "21"), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(9)})
	}
	s.load("main", 30, "11", 0x7f00)
	ids := staticIDs(s.recs)
	opts := Options{IncludeGlobals: true, Explain: true}
	want, wantErr := refAnalyze(s.recs, randomSpec, opts)
	e, _ := NewEngine(randomSpec, opts)
	for k := range s.recs {
		if s.recs[k].Line == 13 {
			e.ObserveBatch(s.recs[k:k+1], nil)
		} else {
			e.ObserveBatch(s.recs[k:k+1], ids[k:k+1])
		}
	}
	got, gotErr := e.Finish()
	checkReference(t, "ids and no ids on one register", want, got, wantErr, gotErr)
	if p := want.Provenance; len(p) == 0 || p[0].Name != "i" || p[0].SelfUpdates != 4 {
		t.Fatalf("the reference's provenance %+v: want i first, with 4 self-updates", p)
	}
}

// ---- Hash-consed shapes ----

// keyedBase is a record of every key field's kind: a register and a named
// constant operand, and a result.
func keyedBase() trace.Record {
	return trace.Record{Line: 12, Func: "main", Block: "b", Opcode: trace.OpAdd, DynID: 7,
		Ops:    []trace.Operand{regOp(1, "%1"), {Index: 2, Size: 64, Value: trace.IntValue(3), Name: "c"}},
		Result: resOp("%2")}
}

// TestKeyedShapesFollowTheKey holds the hash-consing of records without a
// template id (keyed.go) to its key: a record that differs from another
// in one key field gets a shape of its own, and records that differ only
// outside the key share one. Each record is asked for its shape twice,
// the second time through a fresh copy, so a key is found again by value.
func TestKeyedShapesFollowTheKey(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(r *trace.Record)
		share bool
	}{
		{"Func", func(r *trace.Record) { r.Func = "f" }, false},
		{"Line", func(r *trace.Record) { r.Line = 13 }, false},
		{"Opcode", func(r *trace.Record) { r.Opcode = trace.OpMul }, false},
		{"an operand's Index", func(r *trace.Record) { r.Ops[1].Index = 3 }, false},
		{"an operand's IsReg", func(r *trace.Record) { r.Ops[1].IsReg = true }, false},
		{"an operand's Name", func(r *trace.Record) { r.Ops[0].Name = "%9" }, false},
		{"one more operand", func(r *trace.Record) { r.Ops = append(r.Ops, regOp(3, "%3")) }, false},
		{"the result's presence", func(r *trace.Record) { r.Result = nil }, false},
		{"the result's name", func(r *trace.Record) { r.Result.Name = "%3" }, false},
		{"Block", func(r *trace.Record) { r.Block = "c" }, true},
		{"sizes", func(r *trace.Record) { r.Ops[0].Size, r.Ops[1].Size, r.Result.Size = 32, 8, 1 }, true},
		{"DynID", func(r *trace.Record) { r.DynID = 99 }, true},
		{"values", func(r *trace.Record) {
			r.Ops[0].Value, r.Ops[1].Value, r.Result.Value = trace.FloatValue(2.5), trace.IntValue(4), trace.PtrValue(0x10)
		}, true},
		{"strings in separate storage", func(r *trace.Record) {
			r.Func, r.Ops[0].Name, r.Ops[1].Name, r.Result.Name =
				strings.Clone(r.Func), strings.Clone(r.Ops[0].Name), strings.Clone(r.Ops[1].Name), strings.Clone(r.Result.Name)
		}, true},
	} {
		a := newAnalyzer(randomSpec, DefaultOptions())
		shapes := func(edit bool) [2]*shape {
			var out [2]*shape
			for i := range out {
				r := keyedBase()
				if edit {
					tc.edit(&r)
				}
				out[i] = a.shapeOf(trace.NoTemplate, &r)
			}
			return out
		}
		base, other := shapes(false), shapes(true)
		if base[0] != base[1] || other[0] != other[1] {
			t.Errorf("%s: a record found no shape again by its key", tc.name)
		}
		if same := base[0] == other[0]; same != tc.share {
			t.Errorf("%s: records that differ in it share a shape: %v, want %v", tc.name, same, tc.share)
		}
	}
}

// TestMixedIDsMatchReference feeds one stream with template ids on some
// records and trace.NoTemplate on the others, so the same static halves
// are reached by id and by key and share their rows, in random cuts of
// which every third comes without ids at all. It must analyze as the
// reference pass does and as the stream fed with every id does.
func TestMixedIDsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		recs := randomStream(seed)
		ids := staticIDs(recs)
		rng := rand.New(rand.NewSource(seed))
		mixed := append([]uint32(nil), ids...)
		for i := range mixed {
			if rng.Intn(2) == 0 {
				mixed[i] = trace.NoTemplate
			}
		}
		cuts := append(randomCuts(rng, len(recs)), len(recs))
		feed := func(ids []uint32, opts Options, dropSome bool) (*Result, error) {
			e, _ := NewEngine(randomSpec, opts)
			prev := 0
			for k, c := range cuts {
				part := ids[prev:c]
				if dropSome && k%3 == 0 {
					part = nil
				}
				e.ObserveBatch(recs[prev:c], part)
				prev = c
			}
			return e.Finish()
		}
		for _, globals := range []bool{true, false} {
			opts := Options{IncludeGlobals: globals, Explain: true, BuildDDG: true}
			label := fmt.Sprintf("seed %d globals=%v", seed, globals)
			want, wantErr := refAnalyze(recs, randomSpec, opts)
			all, allErr := feed(ids, opts, false)
			checkReference(t, label+" every id", want, all, wantErr, allErr)
			got, gotErr := feed(mixed, opts, true)
			checkReference(t, label+" mixed", want, got, wantErr, gotErr)
			checkReference(t, label+" mixed against every id", all, got, allErr, gotErr)
		}
		if t.Failed() {
			t.Fatalf("seed %d: a stream of %d records fed with mixed ids differs", seed, len(recs))
		}
	}
}
