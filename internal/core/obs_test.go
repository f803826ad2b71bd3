package core

import (
	"reflect"
	"testing"

	"autocheck/internal/obs"
	"autocheck/internal/trace"
)

// TestAnalysisObsSweepTimings checks an entry point records one
// observation of its one sweep — the engine's — plus identification and
// the record counter, and nothing else; requesting a DDG runs the same
// sweep.
func TestAnalysisObsSweepTimings(t *testing.T) {
	for _, ddg := range []bool{false, true} {
		reg := obs.New()
		res := analyzeFig4(t, Options{IncludeGlobals: true, BuildDDG: ddg, Obs: reg})
		s := reg.Snapshot()
		want := []string{"core.engine.sweep.ns", "core.identify.ns"}
		if len(s.Histograms) != len(want) {
			t.Errorf("BuildDDG=%v: histograms %v, want exactly %v", ddg, s.Histograms, want)
		}
		for _, h := range want {
			if got := s.Histograms[h].Count; got != 1 {
				t.Errorf("BuildDDG=%v: %s count = %d, want 1", ddg, h, got)
			}
		}
		if got := s.Counters["core.engine.records"]; got != int64(res.Stats.Records) {
			t.Errorf("BuildDDG=%v: core.engine.records = %d, want %d", ddg, got, res.Stats.Records)
		}
	}
}

// TestExplainProvenance checks the explain trail: classification is
// untouched, the leading entries mirror the critical list in order, and
// the decisive signals are reported for the paper's Fig. 4 variables.
func TestExplainProvenance(t *testing.T) {
	plain := analyzeFig4(t, DefaultOptions())
	opts := DefaultOptions()
	opts.Explain = true
	res := analyzeFig4(t, opts)

	if !reflect.DeepEqual(res.Critical, plain.Critical) {
		t.Fatalf("Explain changed classification: %v vs %v", res.Critical, plain.Critical)
	}
	if len(res.Provenance) < len(res.Critical) {
		t.Fatalf("provenance has %d entries for %d critical vars",
			len(res.Provenance), len(res.Critical))
	}
	byName := make(map[string]Provenance)
	for i, c := range res.Critical {
		p := res.Provenance[i]
		if p.Name != c.Name || !p.Critical || p.Type != c.Type {
			t.Errorf("provenance[%d] = %s/%v/crit=%v, want %s/%v in critical order",
				i, p.Name, p.Type, p.Critical, c.Name, c.Type)
		}
		byName[p.Name] = p
	}
	for _, p := range res.Provenance[len(res.Critical):] {
		if p.Critical {
			t.Errorf("trailing provenance entry %q marked critical", p.Name)
		}
		byName[p.Name] = p
	}

	// Fig. 4 signals: r is WAR (first access a read, then written), a is
	// RAPO (uncovered read), sum is Outcome (read after the loop), it is
	// Index; b and s are MLI but not critical.
	if p := byName["r"]; p.FirstAccess != "read" || p.Writes == 0 || p.FirstDyn < 0 {
		t.Errorf("r provenance = %+v, want first-read + writes + captured dyn", p)
	}
	if p := byName["a"]; !p.UncoveredRead || p.UncoveredDyn < 0 {
		t.Errorf("a provenance = %+v, want uncovered read with captured dyn", p)
	}
	if p := byName["sum"]; !p.ReadAfterLoop || p.AfterLoopDyn < 0 {
		t.Errorf("sum provenance = %+v, want read-after-loop with captured dyn", p)
	}
	for name, p := range byName {
		if p.Rule == "" {
			t.Errorf("%s has empty rule text", name)
		}
	}
	if p, ok := byName["b"]; !ok || p.Critical {
		t.Errorf("b should appear as a non-critical MLI entry, got %+v", p)
	}
}

// TestEngineObs checks the online engine records its fused-sweep totals.
func TestEngineObs(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	reg := obs.New()
	e, err := NewEngine(fig4Spec, Options{IncludeGlobals: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		e.Observe(&recs[i])
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Histograms["core.engine.sweep.ns"].Count != 1 {
		t.Error("core.engine.sweep.ns not recorded")
	}
	if got := s.Counters["core.engine.records"]; got != int64(res.Stats.Records) {
		t.Errorf("core.engine.records = %d, want %d", got, res.Stats.Records)
	}
}

// TestEngineObserveZeroAllocs pins that the engine's per-record hot path
// allocates nothing in steady state — with telemetry disabled AND with a
// registry armed, since recording happens per sweep, not per record.
func TestEngineObserveZeroAllocs(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"disabled", nil},
		{"enabled", obs.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(fig4Spec, Options{IncludeGlobals: true, Obs: tc.reg})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: feed the whole trace so every map and summary exists.
			for i := range recs {
				e.Observe(&recs[i])
			}
			// Steady-state record: an in-MCLR load resolves its region
			// immediately and walks every fused pass.
			var hot *trace.Record
			for i := range recs {
				r := &recs[i]
				if r.Opcode == trace.OpLoad && r.Func == fig4Spec.Function &&
					r.Line >= fig4Spec.StartLine && r.Line <= fig4Spec.EndLine {
					hot = r
					break
				}
			}
			if hot == nil {
				t.Fatal("no in-loop load in the fig4 trace")
			}
			if allocs := testing.AllocsPerRun(500, func() { e.Observe(hot) }); allocs != 0 {
				t.Errorf("Engine.Observe steady state = %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
