package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"autocheck/internal/ddg"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// fig4Source is the paper's Fig. 4 example code. Line numbers matter: the
// main computation loop (region (b)) spans lines 17-25.
const fig4Source = `
void foo(int *p, int *q) {
  for (int i = 0; i < 10; ++i) {
    q[i] = p[i] * 2;
  }
}
int main() {
  int a[10];
  int b[10];
  int sum = 0;
  int s = 0;
  int r = 1;
  for (int i = 0; i < 10; ++i) {
    a[i] = 0;
    b[i] = 0;
  }
  for (int it = 0; it < 10; ++it) {
    int m;
    s = it + 1;
    a[it] = s * r;
    foo(a, b);
    r++;
    m = a[it] + b[it];
    sum = m;
  }
  print(sum);
  return 0;
}`

var fig4Spec = LoopSpec{Function: "main", StartLine: 17, EndLine: 25}

func traceOf(t *testing.T, src string) ([]trace.Record, *ir.Module) {
	t.Helper()
	mod, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	recs, _, err := interp.TraceProgram(mod)
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return recs, mod
}

func analyzeFig4(t *testing.T, opts Options) *Result {
	t.Helper()
	recs, mod := traceOf(t, fig4Source)
	if opts.Module == nil {
		opts.Module = mod
	}
	res, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func typesByName(res *Result) map[string]DependencyType {
	out := make(map[string]DependencyType)
	for _, c := range res.Critical {
		out[c.Name] = c.Type
	}
	return out
}

// TestPaperExampleMLI reproduces §IV-A: the MLI variables of Fig. 4 are
// exactly a, b, sum, s, r.
func TestPaperExampleMLI(t *testing.T) {
	res := analyzeFig4(t, DefaultOptions())
	var names []string
	for _, v := range res.MLI {
		names = append(names, v.Name)
	}
	want := []string{"a", "b", "r", "s", "sum"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("MLI = %v, want %v", names, want)
	}
}

// TestPaperExampleCritical reproduces §IV-C: checkpoint r (WAR), a (RAPO),
// sum (Outcome), it (Index).
func TestPaperExampleCritical(t *testing.T) {
	res := analyzeFig4(t, DefaultOptions())
	got := typesByName(res)
	want := map[string]DependencyType{
		"r": WAR, "a": RAPO, "sum": Outcome, "it": Index,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("critical = %v, want %v", got, want)
	}
}

// TestPaperExampleContractedDDG reproduces Fig. 5(d): the contracted DDG
// contains only the MLI variables with edges s->a, r->a, a->b, r->r,
// a->sum, b->sum.
func TestPaperExampleContractedDDG(t *testing.T) {
	opts := DefaultOptions()
	opts.BuildDDG = true
	res := analyzeFig4(t, opts)
	if res.Contracted == nil || res.Complete == nil {
		t.Fatal("DDG not built")
	}
	for _, n := range res.Contracted.Nodes() {
		if n.Kind != ddg.KindMLI {
			t.Errorf("contracted DDG contains non-MLI node %s", n.Name)
		}
	}
	edges := make(map[string]bool)
	for _, n := range res.Contracted.Nodes() {
		for _, c := range res.Contracted.Children(n) {
			edges[n.Name+"->"+c.Name] = true
		}
	}
	want := []string{"s->a", "r->a", "a->b", "r->r", "a->sum", "b->sum"}
	for _, e := range want {
		if !edges[e] {
			t.Errorf("contracted DDG missing edge %s (have %v)", e, edges)
		}
	}
	for e := range edges {
		found := false
		for _, w := range want {
			if e == w {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected contracted edge %s", e)
		}
	}
	// The complete DDG must be strictly larger (registers + locals).
	if len(res.Complete.Nodes()) <= len(res.Contracted.Nodes()) {
		t.Errorf("complete DDG (%d nodes) not larger than contracted (%d)",
			len(res.Complete.Nodes()), len(res.Contracted.Nodes()))
	}
}

// TestPaperExampleEvents checks the R/W sequence of one loop iteration
// against Fig. 5(e): s-Write, s-Read, r-Read, a-Write, a-Read, b-Write,
// r-Read, r-Write, a-Read, b-Read, sum-Write.
func TestPaperExampleEvents(t *testing.T) {
	opts := DefaultOptions()
	opts.BuildDDG = true
	res := analyzeFig4(t, opts)
	evs := res.Contracted.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	// Fig. 5(e) abstracts one entry per statement; our events are per
	// element access. Project the order of FIRST occurrences of each
	// (variable, kind) pair, which removes both per-element and
	// per-iteration repetition: s-Write, s-Read, r-Read, a-Write, a-Read,
	// b-Write, r-Write, b-Read, sum-Write (events 7 "r-Read" and 9
	// "a-Read" of the figure are repeats of earlier entries).
	seen := make(map[string]bool)
	var got []string
	for _, e := range evs {
		k := e.Node.Name + "-" + e.Kind.String()
		if !seen[k] {
			seen[k] = true
			got = append(got, k)
		}
	}
	want := []string{
		"s-Write", "s-Read", "r-Read", "a-Write", "a-Read", "b-Write",
		"r-Write", "b-Read", "sum-Write",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("first-occurrence events:\n got %v\nwant %v", got, want)
	}
}

func TestInductionWithoutModule(t *testing.T) {
	// The dynamic fallback heuristic must agree with static loop analysis.
	recs, _ := traceOf(t, fig4Source)
	res, err := Analyze(recs, fig4Spec, DefaultOptions()) // no Module
	if err != nil {
		t.Fatal(err)
	}
	c := res.Find("it")
	if c == nil || c.Type != Index {
		t.Errorf("dynamic induction detection: it = %+v", c)
	}
}

func TestAnalyzeBytesMatchesAnalyze(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	data := trace.EncodeAll(recs)
	opts := DefaultOptions()
	opts.Module = mod
	direct, err := Analyze(recs, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaBytes, err := AnalyzeBytes(data, fig4Spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(typesByName(direct), typesByName(viaBytes)) {
		t.Errorf("%v != %v", typesByName(viaBytes), typesByName(direct))
	}
	if viaBytes.Stats.TraceBytes != int64(len(data)) {
		t.Errorf("TraceBytes = %d, want %d", viaBytes.Stats.TraceBytes, len(data))
	}
}

func TestRegionStats(t *testing.T) {
	res := analyzeFig4(t, DefaultOptions())
	st := res.Stats
	if st.RegionA <= 0 || st.RegionB <= 0 || st.RegionC <= 0 {
		t.Errorf("regions = %+v; all must be positive", st)
	}
	if st.RegionA+st.RegionB+st.RegionC != st.Records {
		t.Errorf("regions don't partition the trace: %+v", st)
	}
	// Most records are in the loop.
	if st.RegionB < st.RegionA {
		t.Errorf("region B (%d) should dominate region A (%d)", st.RegionB, st.RegionA)
	}
}

// TestTimingPopulated pins what Result.Timing means on every path, with
// or without the DDG: Pre is trace reading (the decode around the
// engine), Dep the time inside the engine (plus graph contraction),
// Identify module 3 — all measured, disjoint, and within Total.
func TestTimingPopulated(t *testing.T) {
	recs, mod := traceOf(t, fig4Source)
	text, bin := trace.EncodeAll(recs), trace.EncodeBinary(recs)
	path := filepath.Join(t.TempDir(), "trace.actb")
	if err := os.WriteFile(path, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Module = mod
	with := func(edit func(*Options)) Options { o := opts; edit(&o); return o }
	paths := map[string]func() (*Result, error){
		"records": func() (*Result, error) { return Analyze(recs, fig4Spec, opts) },
		"text":    func() (*Result, error) { return AnalyzeBytes(text, fig4Spec, opts) },
		"actb":    func() (*Result, error) { return AnalyzeBytes(bin, fig4Spec, opts) },
		"file":    func() (*Result, error) { return AnalyzeFile(path, fig4Spec, opts) },
		"text-ddg": func() (*Result, error) {
			return AnalyzeBytes(text, fig4Spec, with(func(o *Options) { o.BuildDDG = true }))
		},
	}
	for label, run := range paths {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		tm := res.Timing
		if tm.Pre <= 0 || tm.Dep <= 0 {
			t.Errorf("%s: phase timings not measured: %+v", label, tm)
		}
		if tm.Pre+tm.Dep+tm.Identify > tm.Total {
			t.Errorf("%s: phases exceed the total: %+v", label, tm)
		}
	}
}

func TestWrongLoopLocation(t *testing.T) {
	recs, _ := traceOf(t, fig4Source)
	_, err := Analyze(recs, LoopSpec{Function: "main", StartLine: 900, EndLine: 950}, DefaultOptions())
	if err == nil {
		t.Error("analysis with absent MCLR should fail")
	}
	_, err = Analyze(recs, LoopSpec{Function: "nosuch", StartLine: 17, EndLine: 25}, DefaultOptions())
	if err == nil {
		t.Error("analysis with wrong function should fail")
	}
}

// cgSource ports the paper's Algorithm 2 (the CG case study, §IV-D): the
// conj_grad inputs are globals initialized in main before the main loop.
// Expected result (§IV-D and Table II row CG): checkpoint x (WAR) and the
// loop index; z, p, q, r, A need no checkpoint.
const cgSource = `
float x[8];
float z[8];
float p[8];
float q[8];
float r[8];
float A[8][8];

float conj_grad() {
  float rho = 0.0;
  for (int i = 0; i < 8; i++) {
    z[i] = 0.0;
    r[i] = x[i];
    p[i] = r[i];
    rho += r[i] * r[i];
  }
  for (int cgit = 0; cgit < 5; cgit++) {
    float dpq = 0.0;
    for (int i = 0; i < 8; i++) {
      q[i] = 0.0;
      for (int j = 0; j < 8; j++) {
        q[i] += A[i][j] * p[j];
      }
      dpq += p[i] * q[i];
    }
    float alpha = rho / dpq;
    float rho0 = rho;
    rho = 0.0;
    for (int i = 0; i < 8; i++) {
      z[i] += alpha * p[i];
      r[i] -= alpha * q[i];
      rho += r[i] * r[i];
    }
    float beta = rho / rho0;
    for (int i = 0; i < 8; i++) {
      p[i] = r[i] + beta * p[i];
    }
  }
  float sum = 0.0;
  for (int i = 0; i < 8; i++) {
    float d = x[i] - z[i];
    sum += d * d;
  }
  return sqrt(sum);
}

int main() {
  for (int i = 0; i < 8; i++) {
    x[i] = 1.0;
    z[i] = 0.0;
    p[i] = 0.0;
    q[i] = 0.0;
    r[i] = 0.0;
    for (int j = 0; j < 8; j++) {
      A[i][j] = 0.0;
    }
    A[i][i] = 2.0;
  }
  float rnorm;
  float zeta;
  for (int it = 0; it < 4; it++) {
    rnorm = conj_grad();
    float norm = 0.0;
    for (int i = 0; i < 8; i++) {
      norm += z[i] * z[i];
    }
    norm = sqrt(norm);
    for (int i = 0; i < 8; i++) {
      x[i] = z[i] / norm;
    }
    float xz = 0.0;
    for (int i = 0; i < 8; i++) {
      xz += x[i] * z[i];
    }
    zeta = 10.0 + 1.0 / xz;
  }
  print(rnorm, zeta);
  return 0;
}`

var cgSpec = LoopSpec{Function: "main", StartLine: 61, EndLine: 75}

func TestCGCaseStudy(t *testing.T) {
	recs, mod := traceOf(t, cgSource)
	opts := DefaultOptions()
	opts.Module = mod
	res, err := Analyze(recs, cgSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := typesByName(res)
	if got["x"] != WAR {
		t.Errorf("x = %v, want WAR (read at r=x, written at x=z/||z||)", got["x"])
	}
	if c := res.Find("it"); c == nil || c.Type != Index {
		t.Errorf("it = %+v, want Index", c)
	}
	// §IV-D: "For the remaining input variables, including z, p, q, r, and
	// A, we did not find a dependency necessary for checkpointing."
	for _, name := range []string{"z", "p", "q", "r", "A"} {
		if ty, bad := got[name]; bad {
			t.Errorf("%s flagged as %v; the paper finds no dependency", name, ty)
		}
	}
}

func TestCGGlobalsAreMLI(t *testing.T) {
	recs, mod := traceOf(t, cgSource)
	opts := DefaultOptions()
	opts.Module = mod
	res, err := Analyze(recs, cgSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, v := range res.MLI {
		names[v.Name] = true
	}
	for _, want := range []string{"x", "z", "p", "q", "r", "A"} {
		if !names[want] {
			t.Errorf("global %s missing from MLI set %v", want, res.MLI)
		}
	}
}

func TestIncludeGlobalsOff(t *testing.T) {
	// Without the automated FT workaround, globals touched only inside
	// callees are lost — the paper's Challenge 1 failure mode.
	recs, mod := traceOf(t, cgSource)
	opts := Options{IncludeGlobals: false, Module: mod}
	res, err := Analyze(recs, cgSpec, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := typesByName(res)
	if _, ok := got["x"]; ok {
		// x is read only inside conj_grad (depth > 0) in region B's
		// critical path... but it IS written at depth 0 (x[i] = z[i]/norm),
		// so it remains MLI; the WAR read is still observed.
		// What must disappear is A and q, which are only touched in
		// callees. This assertion documents the weaker property.
		_ = ok
	}
	for _, v := range res.MLI {
		if v.Name == "q" || v.Name == "A" {
			t.Errorf("%s should not be MLI with IncludeGlobals=false", v.Name)
		}
	}
}

func TestCriticalVarMetadata(t *testing.T) {
	res := analyzeFig4(t, DefaultOptions())
	a := res.Find("a")
	if a == nil {
		t.Fatal("a not found")
	}
	if a.SizeBytes != 80 {
		t.Errorf("a.SizeBytes = %d, want 80 (10 x i64)", a.SizeBytes)
	}
	if a.Fn != "main" {
		t.Errorf("a.Fn = %q, want main", a.Fn)
	}
	if a.Base == 0 {
		t.Error("a.Base not set")
	}
	names := res.CriticalNames()
	if len(names) != 4 {
		t.Errorf("CriticalNames = %v", names)
	}
}

func encodeRecs(recs []trace.Record) []byte { return trace.EncodeAll(recs) }

func osWriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
