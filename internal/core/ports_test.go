package core_test

import (
	"fmt"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// The tests in this file need the 14 ports, and progs imports core, so
// they live in the external test package.

type port struct {
	b    *progs.Benchmark
	mod  *ir.Module
	spec core.LoopSpec
	recs []trace.Record
}

func tracePort(t *testing.T, b *progs.Benchmark) port {
	t.Helper()
	mod, err := interp.Compile(b.Source(0))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := b.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := interp.TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	return port{b: b, mod: mod, spec: spec, recs: recs}
}

// TestPassMatchesReferencePorts holds the pass to the reference pass of
// reference_test.go on every port, offline and online, with
// IncludeGlobals on (static induction) and off (the dynamic induction
// heuristic), Explain on in both; and offline with both graphs built.
// Online graphs are left to TestGoldenDDGHashes, which holds the engine's
// graphs to the offline ones on every port, and to the random streams.
func TestPassMatchesReferencePorts(t *testing.T) {
	for _, b := range progs.All() {
		t.Run(b.Name, func(t *testing.T) {
			p := tracePort(t, b)
			for _, opts := range []core.Options{
				{IncludeGlobals: true, Module: p.mod, Explain: true},
				{IncludeGlobals: false, Explain: true},
			} {
				label := fmt.Sprintf("globals=%v module=%v", opts.IncludeGlobals, opts.Module != nil)
				core.CheckReferenceOffline(t, label, p.recs, p.spec, opts)
				core.CheckReferenceOnline(t, label, p.recs, p.spec, opts, nil)
			}
			core.CheckReferenceOffline(t, "BuildDDG", p.recs, p.spec,
				core.Options{IncludeGlobals: true, Module: p.mod, BuildDDG: true})
		})
	}
}

// TestPortAnalysisAllocs pins what a warmed analysis of a port costs in
// allocations: with one register row and one variable slot in place of
// six maps, the pass allocates no more than the map-keyed pass it
// replaced. The ceilings are that pass's counts on the CG port (45,920
// records, ACTB, default options with the module): 958 allocations for
// AnalyzeBytes (0.0209 per record) and 559 for an Engine fed the records
// as one batch (0.0122 per record). The row-and-slot pass measured 950
// and 551.
func TestPortAnalysisAllocs(t *testing.T) {
	p := tracePort(t, progs.Get("CG"))
	data := trace.EncodeBinary(p.recs)
	opts := core.DefaultOptions()
	opts.Module = p.mod
	for _, tc := range []struct {
		name string
		run  func() error
		max  float64
	}{
		{"AnalyzeBytes", func() error {
			_, err := core.AnalyzeBytes(data, p.spec, opts)
			return err
		}, 958},
		{"Engine", func() error {
			e, err := core.NewEngine(p.spec, opts)
			if err != nil {
				return err
			}
			e.ObserveBatch(p.recs, nil)
			_, err = e.Finish()
			return err
		}, 559},
	} {
		if err := tc.run(); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(3, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs, %.4f per record", tc.name, n, n/float64(len(p.recs)))
		if n > tc.max {
			t.Errorf("%s: %.0f allocs (%.4f per record), more than the map-keyed pass's %.0f (%.4f per record)",
				tc.name, n, n/float64(len(p.recs)), tc.max, tc.max/float64(len(p.recs)))
		}
	}
}
