package autocheck

import (
	"reflect"
	"strings"
	"testing"
)

const exampleSrc = `
int main() {
  float u[8];
  float resid = 0.0;
  for (int i = 0; i < 8; i++) {
    u[i] = i * i;
  }
  for (int step = 0; step < 4; step++) {
    resid = 0.0;
    for (int i = 1; i < 7; i++) {
      float nu = (u[i - 1] + u[i + 1]) * 0.5;
      resid += (nu - u[i]) * (nu - u[i]);
      u[i] = nu;
    }
  }
  print(u[3]);
  return 0;
}`

var exampleSpec = LoopSpec{Function: "main", StartLine: 8, EndLine: 15}

func TestPublicAPIEndToEnd(t *testing.T) {
	mod, err := CompileProgram(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\n") {
		t.Errorf("output = %q", out)
	}
	recs, tout, err := TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	if tout != out {
		t.Errorf("traced output %q != plain output %q", tout, out)
	}
	opts := DefaultOptions()
	opts.Module = mod
	res, err := Analyze(recs, exampleSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Find("u"); c == nil || c.Type != WAR {
		t.Errorf("u = %+v, want WAR", c)
	}
	if c := res.Find("step"); c == nil || c.Type != Index {
		t.Errorf("step = %+v, want Index", c)
	}
}

func TestPublicAPITraceRoundtrip(t *testing.T) {
	mod, err := CompileProgram(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeTrace(recs)
	back, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("roundtrip lost records: %d vs %d", len(back), len(recs))
	}
	res, err := AnalyzeBytes(data, exampleSpec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Find("u") == nil {
		t.Errorf("AnalyzeBytes missed u: %v", res.CriticalNames())
	}
}

func TestPublicAPIOnline(t *testing.T) {
	mod, err := CompileProgram(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	onRes, out, err := AnalyzeProgramOnline(mod, exampleSpec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("online run lost program output")
	}
	recs, _, err := TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	offRes, err := Analyze(recs, exampleSpec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onRes.CriticalNames(), offRes.CriticalNames()) {
		t.Errorf("online %v != offline %v", onRes.CriticalNames(), offRes.CriticalNames())
	}
}

func TestPublicAPIEngineDirect(t *testing.T) {
	eng, err := NewEngine(exampleSpec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := CompileProgram(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		eng.Observe(&recs[i])
	}
	res, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Find("u") == nil {
		t.Errorf("engine missed u: %v", res.CriticalNames())
	}
}

func TestDependencyTypeStrings(t *testing.T) {
	for ty, want := range map[DependencyType]string{
		WAR: "WAR", Outcome: "Outcome", RAPO: "RAPO", Index: "Index",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
}
