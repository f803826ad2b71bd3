package core

import (
	"testing"
)

// The paper notes (§VII "Use of AutoCheck" / "Select main loop") that the
// analysis applies to ANY block of continuously executed code, and that
// programs with multiple loops are handled one loop at a time, each
// producing its own checkpoint set. These tests exercise both claims.

// twoLoopSource has two top-level computation loops with different state:
// the first evolves array a (WAR there), the second only reduces over a
// into an accumulator.
const twoLoopSource = `
int main() {
  float a[8];
  float total = 0.0;
  for (int i = 0; i < 8; i++) {
    a[i] = i + 1;
  }
  for (int s = 0; s < 4; s++) {
    for (int i = 0; i < 8; i++) {
      a[i] = a[i] * 1.5;
    }
  }
  for (int k = 0; k < 4; k++) {
    for (int i = 0; i < 8; i++) {
      total += a[i] * 0.25;
    }
  }
  print(total);
  return 0;
}`

func TestMultipleLoopsAnalyzedSeparately(t *testing.T) {
	recs, mod := traceOf(t, twoLoopSource)
	opts := DefaultOptions()
	opts.Module = mod

	// First loop (lines 8-12): a is read-then-scaled each iteration -> WAR.
	res1, err := Analyze(recs, LoopSpec{Function: "main", StartLine: 8, EndLine: 12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got1 := typesByName(res1)
	if got1["a"] != WAR {
		t.Errorf("loop 1: a = %v, want WAR", got1["a"])
	}
	if c := res1.Find("s"); c == nil || c.Type != Index {
		t.Errorf("loop 1: s = %+v, want Index", c)
	}
	if _, bad := got1["total"]; bad {
		t.Errorf("loop 1: total flagged although untouched there")
	}

	// Second loop (lines 13-17): a is read-only; total accumulates (WAR).
	res2, err := Analyze(recs, LoopSpec{Function: "main", StartLine: 13, EndLine: 17}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got2 := typesByName(res2)
	if got2["total"] != WAR {
		t.Errorf("loop 2: total = %v, want WAR", got2["total"])
	}
	if _, bad := got2["a"]; bad {
		t.Errorf("loop 2: read-only a flagged as %v", got2["a"])
	}
	if c := res2.Find("k"); c == nil || c.Type != Index {
		t.Errorf("loop 2: k = %+v, want Index", c)
	}
}

// TestInnerLoopAsRegion analyzes the inner loop of a nest as "the" loop:
// the outer index becomes an ordinary MLI variable of the region.
func TestInnerLoopAsRegion(t *testing.T) {
	src := `
int main() {
  float acc[4];
  for (int i = 0; i < 4; i++) {
    acc[i] = 0.0;
  }
  int outer = 0;
  outer = outer + 0;
  for (outer = 0; outer < 3; outer++) {
    for (int inner = 0; inner < 4; inner++) {
      acc[inner] = acc[inner] + outer;
    }
  }
  print(acc[0], acc[3]);
  return 0;
}`
	recs, mod := traceOf(t, src)
	opts := DefaultOptions()
	opts.Module = mod
	// Analyze only the inner loop (lines 10-12).
	res, err := Analyze(recs, LoopSpec{Function: "main", StartLine: 10, EndLine: 12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := typesByName(res)
	// Within the inner-loop region, acc is read-modify-write -> WAR.
	if got["acc"] != WAR {
		t.Errorf("acc = %v, want WAR (got %v)", got["acc"], got)
	}
	if c := res.Find("inner"); c == nil || c.Type != Index {
		t.Errorf("inner = %+v, want Index", c)
	}
}

func TestRegionsWithEmptyAfterLoop(t *testing.T) {
	// A program whose main loop is the last thing it does: region C holds
	// only the epilogue (no Outcome detectable; nothing should crash).
	src := `
int main() {
  int s = 0;
  s = s + 0;
  for (int i = 0; i < 3; i++) {
    s += i;
  }
  return 0;
}`
	recs, mod := traceOf(t, src)
	opts := DefaultOptions()
	opts.Module = mod
	res, err := Analyze(recs, LoopSpec{Function: "main", StartLine: 5, EndLine: 7}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := typesByName(res)
	// s is WAR (s += i reads it); not Outcome (never read after).
	if got["s"] != WAR {
		t.Errorf("s = %v, want WAR", got["s"])
	}
}

func TestAnalyzeFile(t *testing.T) {
	recs, mod := traceOf(t, twoLoopSource)
	path := t.TempDir() + "/trace.txt"
	if err := osWriteFile(path, encodeRecs(recs)); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Module = mod
	res, err := AnalyzeFile(path, LoopSpec{Function: "main", StartLine: 8, EndLine: 12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Find("a") == nil {
		t.Errorf("AnalyzeFile missed a: %v", res.CriticalNames())
	}
	if _, err := AnalyzeFile(t.TempDir()+"/missing.txt", LoopSpec{}, opts); err == nil {
		t.Error("missing file should fail")
	}
}
