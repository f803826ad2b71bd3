package core_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// v1Fixture is IS's ACTB trace at scale 0 in the legacy version-1 layout,
// written by the version-1 writer before version 2 existed.
const v1Fixture = "../trace/testdata/is_v1.actb"

// TestAnalyzeV1Fixture: a version-1 trace file analyzes as its text does,
// and truncated copies fail with the errors the version-1 reader gave
// them, from AnalyzeFile and AnalyzeBytes alike.
func TestAnalyzeV1Fixture(t *testing.T) {
	data, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	b := progs.Get("IS")
	spec, err := b.Spec(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	opts := core.DefaultOptions()
	want, err := core.AnalyzeFile(write("is.txt", trace.EncodeAll(recs)), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AnalyzeFile(write("is.actb", data), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.CriticalNames(), got.CriticalNames()) || want.Stats.Records != got.Stats.Records ||
		want.Stats.RegionB != got.Stats.RegionB || !reflect.DeepEqual(want.Critical, got.Critical) {
		t.Errorf("fixture: %v %+v, text %v %+v", got.CriticalNames(), got.Stats, want.CriticalNames(), want.Stats)
	}
	for cut, msg := range map[int]string{
		3:             `trace: expected block header, got "ACT"`,
		5:             "trace: binary trace truncated at byte offset 5 (opcode table size): unexpected EOF",
		40:            "trace: binary trace truncated at byte offset 40 (opcode table entry): unexpected EOF",
		115908:        "trace: binary trace truncated at byte offset 115908 (operand meta): unexpected EOF",
		len(data) - 1: "trace: binary trace truncated at byte offset 231816 (operand name): unexpected EOF",
	} {
		_, ferr := core.AnalyzeFile(write("cut.actb", data[:cut]), spec, opts)
		_, berr := core.AnalyzeBytes(data[:cut], spec, opts)
		for label, err := range map[string]error{"AnalyzeFile": ferr, "AnalyzeBytes": berr} {
			if err == nil || err.Error() != msg {
				t.Errorf("cut at %d: %s error %v, want %s", cut, label, err, msg)
			}
		}
	}
}

// TestOnlinePortAnalysisAllocs is TestPortAnalysisAllocs' online row: an
// engine fed by interp.TraceProgramInto on CG, the tracer's template ids
// with its batches, may allocate no more than the 1,757 times it did
// before the ids existed (tracer and engine together).
func TestOnlinePortAnalysisAllocs(t *testing.T) {
	p := tracePort(t, progs.Get("CG"))
	opts := core.DefaultOptions()
	opts.Module = p.mod
	run := func() {
		e, err := core.NewEngine(p.spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := interp.TraceProgramInto(p.mod, e); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	n := testing.AllocsPerRun(3, run)
	t.Logf("online: %.0f allocs, %.4f per record", n, n/float64(len(p.recs)))
	if n > 1757 {
		t.Errorf("online: %.0f allocs, more than the 1,757 before template ids", n)
	}
}
