package core

import (
	"fmt"
	"math/rand"
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
