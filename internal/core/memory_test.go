package core_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// memoryScales are the problem sizes a memory class is checked across:
// CG's trace grows about 11× from the first to the last, its variables'
// footprint about 4×.
var memoryScales = []int{8, 16, 32}

// allocPerPass is the bytes one run of pass allocates (runtime TotalAlloc),
// after one warm-up run.
func allocPerPass(t *testing.T, pass func() error) uint64 {
	t.Helper()
	if err := pass(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pass(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAnalysisMemoryIsFootprintBound holds every analysis entry point to
// one memory class: on CG at scales 8, 16 and 32, a pass allocates what
// the variables and their footprint need, not what the trace's length
// does — so scale 32 may allocate at most 1.5× scale 8. The rows are the
// engine fed an ACTB trace batch by batch (what the online and ingest
// paths do), AnalyzeBytes over the same bytes, AnalyzeFile streaming
// them from disk, and AnalyzeFile streaming the text trace, whose decoder
// keeps a table of block templates.
func TestAnalysisMemoryIsFootprintBound(t *testing.T) {
	var b *progs.Benchmark
	for _, p := range progs.All() {
		if p.Name == "CG" {
			b = p
		}
	}
	if b == nil {
		t.Fatal("no CG port")
	}
	rows := []string{"Engine.ObserveBatch", "AnalyzeBytes", "AnalyzeFile", "AnalyzeFile text"}
	alloc := map[string][]uint64{}
	for _, scale := range memoryScales {
		mod, err := interp.Compile(b.Source(scale))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := b.Spec(scale)
		if err != nil {
			t.Fatal(err)
		}
		bin, _, err := interp.TraceProgramBinary(mod)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cg.actb")
		if err := os.WriteFile(path, bin, 0o644); err != nil {
			t.Fatal(err)
		}
		textPath := filepath.Join(t.TempDir(), "cg.trace")
		if err := writeTextTrace(textPath, mod); err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Module = mod
		var batch trace.RecordBatch
		passes := map[string]func() error{
			"Engine.ObserveBatch": func() error {
				e, err := core.NewEngine(spec, opts)
				if err != nil {
					return err
				}
				rd, _, err := trace.NewBytesReader(bin)
				if err != nil {
					return err
				}
				if err := trace.ForEachBatch(rd, &batch, func(_ int, recs []trace.Record) error {
					e.ObserveBatch(recs, nil)
					return nil
				}); err != nil {
					return err
				}
				_, err = e.Finish()
				return err
			},
			"AnalyzeBytes": func() error { _, err := core.AnalyzeBytes(bin, spec, opts); return err },
			"AnalyzeFile":  func() error { _, err := core.AnalyzeFile(path, spec, opts); return err },
			"AnalyzeFile text": func() error {
				_, err := core.AnalyzeFile(textPath, spec, opts)
				return err
			},
		}
		for _, row := range rows {
			alloc[row] = append(alloc[row], allocPerPass(t, passes[row]))
		}
		t.Logf("scale %d: %d B of ACTB", scale, len(bin))
	}
	for _, row := range rows {
		a := alloc[row]
		t.Logf("%s: %v B per pass at scales %v", row, a, memoryScales)
		if last, first := float64(a[len(a)-1]), float64(a[0]); last > 1.5*first {
			t.Errorf("%s allocates %.0f B per pass at scale %d, %.1f× the %.0f B at scale %d: not bound by the footprint",
				row, last, memoryScales[len(a)-1], last/first, first, memoryScales[0])
		}
	}
}

// writeTextTrace writes mod's text trace to path.
func writeTextTrace(path string, mod *ir.Module) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := interp.TraceProgramTo(mod, trace.NewRecordWriter(f, trace.FormatText)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
