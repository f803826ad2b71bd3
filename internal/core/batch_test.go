package core

import (
	"fmt"
	"testing"

	"autocheck/internal/trace"
)

// TestStepBatchEquivalence pins the schedule's batching at unit level: on
// a trace spanning several decode batches, Analyze over the records (the
// whole trace as one batch) and AnalyzeBytes over both encodings (several
// batches, each classified from its base index) agree — so base indices
// and region classification hold across batch boundaries.
func TestStepBatchEquivalence(t *testing.T) {
	base, _ := traceOf(t, fig4Source)
	recs := make([]trace.Record, 0, 3*trace.DefaultBatchRecords)
	for len(recs) < 3*trace.DefaultBatchRecords {
		recs = append(recs, base...)
	}
	// Repeating the program repeats the loop: region B runs from the first
	// copy's loop entry to the last copy's exit, across every batch cut.
	want, err := Analyze(recs, fig4Spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Records != len(recs) || want.Stats.RegionB <= 2*trace.DefaultBatchRecords {
		t.Fatalf("fixture does not span batches: %+v", want.Stats)
	}
	for label, data := range map[string][]byte{"text": trace.EncodeAll(recs), "actb": trace.EncodeBinary(recs)} {
		got, err := AnalyzeBytes(data, fig4Spec, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireEquivalent(t, label, want, got)
	}
}

// TestAnalyzeStreamAllocs pins the streaming arena work: analyzing an
// in-memory trace — AnalyzeBytes with default options, which never
// materializes — must cost O(variables) allocations, not O(records).
// Before batch decoding, this trace cost one-plus allocations per record
// per sweep. (The bytes-per-record pin on a full-size port lives in
// harness.TestAnalyzeBytesNeverMaterializes: progs imports this package.)
func TestAnalyzeStreamAllocs(t *testing.T) {
	base, _ := traceOf(t, fig4Source)
	recs := make([]trace.Record, 0, 4096)
	for len(recs) < 4096 {
		recs = append(recs, base...)
	}
	opts := DefaultOptions()
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"text", trace.EncodeAll(recs)},
		{"binary", trace.EncodeBinary(recs)},
	} {
		t.Run(enc.name, func(t *testing.T) {
			if _, err := AnalyzeBytes(enc.data, fig4Spec, opts); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := AnalyzeBytes(enc.data, fig4Spec, opts); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocs per streaming analysis of %d records", enc.name, allocs, len(recs))
			// O(variables) headroom; len(recs) would mean a per-record cost
			// crept back in.
			if allocs > float64(len(recs))/4 {
				t.Errorf("streaming analysis = %.0f allocs for %d records — per-record costs are back",
					allocs, len(recs))
			}
		})
	}
}

// TestScratchReuseAllocs pins the per-worker scratch contract that
// AnalyzeMany relies on: re-running an analysis through one scratch
// bundle must reuse the analyzer maps and batch arena, costing far less
// than the first (cold) run.
func TestScratchReuseAllocs(t *testing.T) {
	base, _ := traceOf(t, fig4Source)
	recs := make([]trace.Record, 0, 4096)
	for len(recs) < 4096 {
		recs = append(recs, base...)
	}
	data := trace.EncodeAll(recs)
	opts := DefaultOptions()
	in := Input{Data: data, Spec: fig4Spec, Opts: opts}

	cold := testing.AllocsPerRun(5, func() {
		if _, err := in.analyzeIn(&scratch{}); err != nil {
			t.Fatal(err)
		}
	})
	sc := &scratch{}
	if _, err := in.analyzeIn(sc); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := in.analyzeIn(sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold %.0f allocs, warm %.0f allocs", cold, warm)
	// The arena work already makes cold runs O(variables), so reuse saves
	// only the analyzer/batch setup — pin that it never costs extra, and
	// an absolute ceiling (measured ~290 on this fixture) that a revived
	// per-record or per-sweep cost would blow through.
	if warm > cold {
		t.Errorf("scratch reuse costs extra: cold %.0f allocs, warm %.0f allocs", cold, warm)
	}
	if warm > 1000 {
		t.Errorf("warm streaming analysis = %.0f allocs, want O(variables) (<= 1000)", warm)
	}
}

// TestAnalyzeManyScratchAllocs pins that AnalyzeMany's per-worker
// scratch actually amortizes: analyzing N identical traces on one
// worker must cost far less than N cold single-trace analyses.
func TestAnalyzeManyScratchAllocs(t *testing.T) {
	base, _ := traceOf(t, fig4Source)
	recs := make([]trace.Record, 0, 4096)
	for len(recs) < 4096 {
		recs = append(recs, base...)
	}
	data := trace.EncodeAll(recs)
	opts := DefaultOptions()
	const n = 8
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{Name: fmt.Sprintf("in%d", i), Data: data, Spec: fig4Spec, Opts: opts}
	}

	perCold := testing.AllocsPerRun(5, func() {
		if _, err := inputs[0].analyze(); err != nil {
			t.Fatal(err)
		}
	})
	perMany := testing.AllocsPerRun(3, func() {
		if _, err := AnalyzeMany(inputs, 1); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("cold single analysis %.0f allocs; AnalyzeMany %.0f allocs per trace", perCold, perMany)
	// Per-trace cost inside AnalyzeMany must not exceed a cold standalone
	// analysis (the scratch can only help) and must stay O(variables).
	if perMany > perCold {
		t.Errorf("AnalyzeMany costs more per trace (%.0f allocs) than a cold analysis (%.0f)", perMany, perCold)
	}
	if perMany > 1000 {
		t.Errorf("AnalyzeMany = %.0f allocs per trace, want O(variables) (<= 1000)", perMany)
	}
}

// TestEngineSessionAllocs pins the online engine's whole-session cost on
// a trace with heavy callee excursions: a fork logs variables, not
// records, so the session must stay O(variables), not O(records).
func TestEngineSessionAllocs(t *testing.T) {
	base, _ := traceOf(t, fig4Source)
	recs := make([]trace.Record, 0, 4096)
	for len(recs) < 4096 {
		recs = append(recs, base...)
	}
	run := func() {
		e, err := NewEngine(fig4Spec, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			e.Observe(&recs[i])
		}
		if _, err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	t.Logf("%.0f allocs per online session of %d records", allocs, len(recs))
	if allocs > float64(len(recs))/4 {
		t.Errorf("online session = %.0f allocs for %d records — per-record costs are back",
			allocs, len(recs))
	}
}

// TestReloadKeepsSourceArray pins the register row's reuse: a register
// loaded and then rewritten by arithmetic, iteration after iteration,
// keeps one sources array — the Load empties the row's sources, and the
// rewrite points them at its shape's again, keyed or by id, so the pass
// allocates nothing. The reference
// pass (reference_test.go) deleted the register's reg-reg entry at the
// Load and allocated a new array at every rewrite.
func TestReloadKeepsSourceArray(t *testing.T) {
	const x = 0x7f00
	alloca := trace.Record{Func: "main", Line: 1, Opcode: trace.OpAlloca, DynID: 1,
		Result: &trace.Operand{Size: 64, Value: trace.PtrValue(x), IsReg: true, Name: "x"}}
	load := trace.Record{Func: "main", Line: 10, Opcode: trace.OpLoad, DynID: 2,
		Ops:    []trace.Operand{ptrOp(1, "x", true, x)},
		Result: resOp("%r")}
	add := trace.Record{Func: "main", Line: 10, Opcode: trace.OpAdd, DynID: 3,
		Ops:    []trace.Operand{regOp(1, "%a"), regOp(2, "%b")},
		Result: resOp("%r")}
	spec := LoopSpec{Function: "main", StartLine: 10, EndLine: 20}
	pass, shaped := newAnalyzer(spec, DefaultOptions()), newAnalyzer(spec, DefaultOptions())
	for _, tc := range []struct {
		name string
		step func(*trace.Record, Region)
		want func(float64) bool
	}{
		{"pass", func(r *trace.Record, reg Region) { pass.fusedStep(r, pass.shapeOf(trace.NoTemplate, r), reg) }, func(n float64) bool { return n == 0 }},
		{"pass with template ids", func(r *trace.Record, reg Region) {
			shaped.fusedStep(r, shaped.shapeOf(uint32(r.DynID), r), reg)
		}, func(n float64) bool { return n == 0 }},
		{"reference", newRefAnalyzer(spec, DefaultOptions()).fusedStep, func(n float64) bool { return n >= 1 }},
	} {
		tc.step(&alloca, RegionBefore)
		cycle := func() {
			tc.step(&load, RegionLoop)
			tc.step(&add, RegionLoop)
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); !tc.want(n) {
			t.Errorf("%s: %.1f allocs per load-then-rewrite", tc.name, n)
		}
	}
}
