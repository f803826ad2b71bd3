package progs

import (
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/validate"
)

func TestFourteenBenchmarks(t *testing.T) {
	if n := len(All()); n != 14 {
		t.Fatalf("registered %d benchmarks, want 14", n)
	}
	order := []string{"Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU", "CoMD", "miniAMR", "AMG", "HACC"}
	for i, b := range All() {
		if b.Name != order[i] {
			t.Errorf("benchmark %d = %s, want %s (Table II order)", i, b.Name, order[i])
		}
	}
}

func TestGetAndMetadata(t *testing.T) {
	if Get("CG") == nil || Get("nosuch") != nil {
		t.Error("Get lookup broken")
	}
	for _, b := range All() {
		if b.Description == "" {
			t.Errorf("%s: empty description", b.Name)
		}
		if b.LOC() < 10 {
			t.Errorf("%s: implausible LOC %d", b.Name, b.LOC())
		}
		if len(b.Expected) == 0 {
			t.Errorf("%s: no expected critical variables", b.Name)
		}
		if _, err := b.Spec(0); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if b.Iterations(b.DefaultScale) < 2 {
			t.Errorf("%s: needs at least 2 main-loop iterations", b.Name)
		}
	}
}

func TestSourcesCompileAndRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := interp.Compile(b.Source(0))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			out, err := interp.RunProgram(mod)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out == "" {
				t.Error("benchmark produced no output")
			}
		})
	}
}

// analyzeBenchmark traces and analyzes one benchmark at its default scale.
func analyzeBenchmark(t *testing.T, b *Benchmark) (*core.Result, string) {
	t.Helper()
	src := b.Source(0)
	mod, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name, err)
	}
	recs, out, err := interp.TraceProgram(mod)
	if err != nil {
		t.Fatalf("%s: trace: %v", b.Name, err)
	}
	spec, err := b.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Module = mod
	res, err := core.Analyze(recs, spec, opts)
	if err != nil {
		t.Fatalf("%s: analyze: %v", b.Name, err)
	}
	return res, out
}

// TestTableIICriticalVariables is the Table II reproduction: for every
// benchmark, AutoCheck detects exactly the expected critical variables
// with the expected dependency types.
func TestTableIICriticalVariables(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, _ := analyzeBenchmark(t, b)
			got := make(map[string]core.DependencyType)
			for _, c := range res.Critical {
				got[c.Name] = c.Type
			}
			for name, ty := range b.Expected {
				gty, ok := got[name]
				if !ok {
					t.Errorf("missing critical variable %s (%v); got %v", name, ty, res.CriticalNames())
					continue
				}
				if gty != ty {
					t.Errorf("%s classified %v, want %v", name, gty, ty)
				}
			}
			for name, ty := range got {
				if _, ok := b.Expected[name]; !ok {
					t.Errorf("unexpected critical variable %s (%v)", name, ty)
				}
			}
		})
	}
}

// TestValidationAllBenchmarks is the §VI-B reproduction: every benchmark
// restarts successfully from a fail-stop with the detected variables
// checkpointed, and dropping any one variable breaks a restart.
func TestValidationAllBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			src := b.Source(0)
			mod, err := interp.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := interp.TraceProgram(mod)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := b.Spec(0)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Module = mod
			res, err := core.Analyze(recs, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			v, err := validate.New(mod, res, t.TempDir(), validate.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sufficient {
				t.Errorf("restart with detected variables failed: %s", rep.Mismatch)
			}
			for name, nec := range rep.Necessary {
				if !nec {
					t.Errorf("detected variable %s is a false positive (restart succeeded without it)", name)
				}
			}
			if rep.FullSnapshotBytes <= rep.CheckpointBytes {
				t.Errorf("BLCR-like snapshot (%d B) should exceed AutoCheck checkpoint (%d B)",
					rep.FullSnapshotBytes, rep.CheckpointBytes)
			}
		})
	}
}

// TestScalesProduceSameVariables reproduces the paper's "With different
// inputs" observation (§VII): the detected variables do not change when
// the problem size changes.
func TestScalesProduceSameVariables(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("short mode")
			}
			src := b.Source(b.LargeScale)
			mod, err := interp.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := interp.TraceProgram(mod)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := b.Spec(b.LargeScale)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.Module = mod
			res, err := core.Analyze(recs, spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]core.DependencyType)
			for _, c := range res.Critical {
				got[c.Name] = c.Type
			}
			for name, ty := range b.Expected {
				if got[name] != ty {
					t.Errorf("at scale %d: %s = %v, want %v", b.LargeScale, name, got[name], ty)
				}
			}
			if len(got) != len(b.Expected) {
				t.Errorf("at scale %d: %d critical vars, want %d (%v)",
					b.LargeScale, len(got), len(b.Expected), got)
			}
		})
	}
}

// TestOnlineAnalysisAllBenchmarks: the single-pass instrumentation-time
// analyzer (the paper's §IX future work) must agree with the offline
// trace-file pipeline on every benchmark.
func TestOnlineAnalysisAllBenchmarks(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, _ := analyzeBenchmark(t, b)
			offline := make(map[string]core.DependencyType)
			for _, c := range res.Critical {
				offline[c.Name] = c.Type
			}

			mod, err := interp.Compile(b.Source(0))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := b.Spec(0)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(spec, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := interp.TraceProgramInto(mod, eng); err != nil {
				t.Fatal(err)
			}
			onlineRes, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			online := make(map[string]core.DependencyType)
			for _, c := range onlineRes.Critical {
				online[c.Name] = c.Type
			}
			if len(online) != len(offline) {
				t.Fatalf("online %v != offline %v", online, offline)
			}
			for name, ty := range offline {
				if online[name] != ty {
					t.Errorf("%s: online %v, offline %v", name, online[name], ty)
				}
			}
		})
	}
}
