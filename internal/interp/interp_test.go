package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

func run(t *testing.T, src string) string {
	t.Helper()
	mod, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := RunProgram(mod)
	if err != nil {
		t.Fatalf("run: %v\noutput so far: %s", err, out)
	}
	return out
}

// traceSource compiles and traces a source program in one step.
func traceSource(src string) ([]trace.Record, string, error) {
	mod, err := Compile(src)
	if err != nil {
		return nil, "", err
	}
	return TraceProgram(mod)
}

func TestArithmeticAndLoops(t *testing.T) {
	out := run(t, `int main() {
  int s = 0;
  for (int i = 0; i < 10; ++i) { s += i; }
  print(s);
  return 0;
}`)
	if out != "45\n" {
		t.Errorf("output = %q, want 45", out)
	}
}

func TestFloatMath(t *testing.T) {
	out := run(t, `int main() {
  float x = 2.0;
  float y;
  y = sqrt(x) * sqrt(x) + pow(2.0, 10.0) / 4.0 - fabs(0.0 - 1.5);
  print(y);
  return 0;
}`)
	if out != "256.5\n" {
		t.Errorf("output = %q, want 256.5", out)
	}
}

// The paper's Fig. 4 example: sum must be 300 after 10 iterations.
const fig4 = `
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

func TestFig4Example(t *testing.T) {
	if out := run(t, fig4); out != "300\n" {
		t.Errorf("fig4 output = %q, want 300", out)
	}
}

func TestMultiDimArrays(t *testing.T) {
	out := run(t, `int main() {
  float u[3][4][5];
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 5; k++)
        u[i][j][k] = i * 100 + j * 10 + k;
  print(u[2][3][4], u[0][0][0], u[1][2][3]);
  return 0;
}`)
	if out != "234.0 0.0 123.0\n" {
		t.Errorf("output = %q", out)
	}
}

func TestArrayParamWriting(t *testing.T) {
	out := run(t, `
void fill(float v[], int n) {
  for (int i = 0; i < n; i++) v[i] = i * 2.5;
}
float total(float v[], int n) {
  float s = 0.0;
  for (int i = 0; i < n; i++) s += v[i];
  return s;
}
int main() {
  float data[8];
  fill(data, 8);
  print(total(data, 8));
  return 0;
}`)
	if out != "70.0\n" {
		t.Errorf("output = %q, want 70.0", out)
	}
}

func TestMultiDimArrayParam(t *testing.T) {
	out := run(t, `
void scale(float m[][4], int rows, float f) {
  for (int i = 0; i < rows; i++)
    for (int j = 0; j < 4; j++)
      m[i][j] = m[i][j] * f;
}
int main() {
  float m[2][4];
  for (int i = 0; i < 2; i++)
    for (int j = 0; j < 4; j++)
      m[i][j] = i + j;
  scale(m, 2, 10.0);
  print(m[1][3]);
  return 0;
}`)
	if out != "40.0\n" {
		t.Errorf("output = %q, want 40.0", out)
	}
}

func TestGlobals(t *testing.T) {
	out := run(t, `
int counter;
float table[4];
void bump() { counter = counter + 1; }
int main() {
  counter = 0;
  bump(); bump(); bump();
  table[2] = 7.5;
  print(counter, table[2], table[0]);
  return 0;
}`)
	if out != "3 7.5 0.0\n" {
		t.Errorf("output = %q", out)
	}
}

func TestBreakContinueWhile(t *testing.T) {
	out := run(t, `int main() {
  int s = 0;
  int i = 0;
  while (1) {
    i++;
    if (i > 10) break;
    if (i % 2 == 0) continue;
    s += i;
  }
  print(s, i);
  return 0;
}`)
	if out != "25 11\n" {
		t.Errorf("output = %q, want 25 11", out)
	}
}

func TestShortCircuit(t *testing.T) {
	// q[5] would trap if evaluated; short-circuit must skip it.
	out := run(t, `int main() {
  int x = 0;
  int ok;
  ok = (x == 0) || (1 / x > 0);
  int both;
  both = (x == 1) && (1 / x > 0);
  print(ok, both);
  return 0;
}`)
	if out != "1 0\n" {
		t.Errorf("output = %q, want 1 0", out)
	}
}

func TestUnaryAndComparisons(t *testing.T) {
	out := run(t, `int main() {
  int a = 5;
  float b = 2.5;
  print(-a, !a, !0, a >= 5, b < 2.5, b != 2.5, -b);
  return 0;
}`)
	if out != "-5 0 1 1 0 0 -2.5\n" {
		t.Errorf("output = %q", out)
	}
}

func TestRecursion(t *testing.T) {
	out := run(t, `
int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
int main() { print(fib(12)); return 0; }`)
	if out != "144\n" {
		t.Errorf("output = %q, want 144", out)
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `int main() { print(rand() % 1000, rand() % 1000); return 0; }`
	a := run(t, src)
	b := run(t, src)
	if a != b {
		t.Errorf("rand() is not deterministic: %q vs %q", a, b)
	}
}

func TestDivisionByZero(t *testing.T) {
	mod, err := Compile(`int main() { int x = 0; print(1 / x); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(mod); err == nil {
		t.Error("division by zero should fail")
	}
}

func TestStepLimit(t *testing.T) {
	mod, err := Compile(`int main() { while (1) {} return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(mod)
	m.MaxSteps = 1000
	if _, err := m.Run(); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

func TestFailStopInjection(t *testing.T) {
	mod, err := Compile(fig4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(mod)
	hits := 0
	m.BlockHook = func(mm *Machine, f *Frame, blk *ir.Block) error {
		if f.Fn.Name == "main" && strings.HasPrefix(blk.Name, "for.cond") {
			hits++
			if hits > 15 {
				return ErrFailStop
			}
		}
		return nil
	}
	_, err = m.Run()
	if !errors.Is(err, ErrFailStop) {
		t.Errorf("err = %v, want ErrFailStop", err)
	}
}

func TestTraceRecordsShape(t *testing.T) {
	recs, out, err := traceSource(fig4)
	if err != nil {
		t.Fatal(err)
	}
	if out != "300\n" {
		t.Errorf("traced output = %q", out)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	var last int64 = 0
	sawAlloca, sawParamCall, sawLoad := false, false, false
	for i := range recs {
		r := &recs[i]
		if r.DynID <= last && i > 0 {
			t.Fatalf("dynamic IDs not strictly increasing at %d", i)
		}
		last = r.DynID
		switch r.Opcode {
		case trace.OpAlloca:
			sawAlloca = true
			if r.Line != -1 {
				t.Errorf("alloca with line %d, want -1 (Fig 6c)", r.Line)
			}
			if r.Result == nil || r.Result.Value.Kind != trace.KindPtr {
				t.Error("alloca result must carry the variable address")
			}
		case trace.OpCall:
			for _, op := range r.Ops {
				if op.Index < 0 {
					sawParamCall = true
					if op.Name == "" {
						t.Error("parameter operand without a name")
					}
				}
			}
		case trace.OpLoad:
			sawLoad = true
			if len(r.Ops) != 1 || r.Ops[0].Value.Kind != trace.KindPtr {
				t.Errorf("load operand should be an address, got %+v", r.Ops)
			}
			if r.Result == nil {
				t.Error("load without result")
			}
		}
	}
	if !sawAlloca || !sawParamCall || !sawLoad {
		t.Errorf("trace missing record kinds: alloca=%v paramCall=%v load=%v",
			sawAlloca, sawParamCall, sawLoad)
	}
}

func TestTraceDeterministic(t *testing.T) {
	recs1, _, err := traceSource(fig4)
	if err != nil {
		t.Fatal(err)
	}
	recs2, _, err := traceSource(fig4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i].String() != recs2[i].String() {
			t.Fatalf("record %d differs:\n%s\n%s", i, recs1[i].String(), recs2[i].String())
		}
	}
}

func TestStackAddressReuse(t *testing.T) {
	// Sibling calls must reuse stack addresses (this is what makes the
	// paper's Challenge 2 — same-name locals at the same address across
	// different calls — actually occur).
	src := `
int f() { int local = 1; return local; }
int g() { int local = 2; return local; }
int main() { print(f() + g()); return 0; }`
	recs, _, err := traceSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for i := range recs {
		r := &recs[i]
		if r.Opcode == trace.OpAlloca && r.Result.Name == "local" {
			addrs = append(addrs, r.Result.Value.Addr())
		}
	}
	if len(addrs) != 2 {
		t.Fatalf("found %d 'local' allocas, want 2", len(addrs))
	}
	if addrs[0] != addrs[1] {
		t.Errorf("sibling frames got different addresses: %#x vs %#x", addrs[0], addrs[1])
	}
}

// alloca returns the executed Alloca of the named local in this frame. An
// Alloca's register holds a pointer once it has run and the zero (integer)
// value before.
func (f *Frame) alloca(name string) *ir.Instr {
	for _, blk := range f.Fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == trace.OpAlloca && in.Name == name && f.regs[in.ID].Kind == trace.KindPtr {
				return in
			}
		}
	}
	return nil
}

func TestGlobalAndFrameAddressLookups(t *testing.T) {
	mod, err := Compile(`
float big[16];
int main() { big[3] = 1.0; int x = 2; for (int i = 0; i < 1; i++) {} print(x); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(mod)
	addr, ok := m.GlobalAddr("big")
	if !ok {
		t.Fatal("GlobalAddr(big) not found")
	}
	var xAddr uint64
	m.BlockHook = func(mm *Machine, f *Frame, blk *ir.Block) error {
		if in := f.alloca("x"); in != nil {
			xAddr = f.regs[in.ID].Addr()
		}
		return nil
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if xAddr == 0 {
		t.Error("never saw frame alloca for x")
	}
	// big[3] was written at addr+24.
	v := m.readCell(addr+24, classFloat)
	if v.Kind != trace.KindFloat || v.Float() != 1.0 {
		t.Errorf("big[3] cell = %+v, want 1.0", v)
	}
	if typ := m.Mod.Global("big").Elem; typ.String() != "[16 x f64]" {
		t.Errorf("type of big = %v", typ)
	}
}

func TestReadWriteRange(t *testing.T) {
	mod, err := Compile(`int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(mod)
	vals := []trace.Value{trace.IntValue(1), trace.FloatValue(2.5), trace.IntValue(3)}
	m.WriteRange(0x1000, vals)
	got := m.ReadRange(0x1000, 3)
	for i := range vals {
		if !got[i].Equal(vals[i]) {
			t.Errorf("cell %d = %+v, want %+v", i, got[i], vals[i])
		}
	}
	// Unwritten cells read as zero.
	z := m.ReadRange(0x2000, 2)
	if z[0].Int() != 0 || z[1].Int() != 0 {
		t.Errorf("unwritten cells = %+v", z)
	}
}

func TestOutputOnlyFromPrint(t *testing.T) {
	out := run(t, `int main() { int x = 5; x = x * 2; return 0; }`)
	if out != "" {
		t.Errorf("silent program produced output %q", out)
	}
}

func TestIntFloatConversionOnStore(t *testing.T) {
	out := run(t, `int main() {
  float f = 3;
  int i;
  i = 7.9;
  print(f, i);
  return 0;
}`)
	if out != "3.0 7\n" {
		t.Errorf("output = %q, want \"3.0 7\"", out)
	}
}

// recordSink is a minimal Observer for the direct tracer feed. It clones
// what it retains: the Observer contract lets emitters reuse their
// record and operand buffers between calls.
type recordSink struct{ recs []trace.Record }

func (s *recordSink) Observe(r *trace.Record) { s.recs = append(s.recs, r.Clone()) }

// TestTraceProgramInto: the direct tracer→observer feed delivers exactly
// the records TraceProgram materializes, in order, with the same program
// output.
func TestTraceProgramInto(t *testing.T) {
	mod, err := Compile(`int main() {
  int s = 0;
  for (int i = 0; i < 4; i++) {
    s += i;
  }
  print(s);
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOut, err := TraceProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	var sink recordSink
	out, err := TraceProgramInto(mod, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if out != wantOut {
		t.Errorf("output %q, want %q", out, wantOut)
	}
	if !reflect.DeepEqual(sink.recs, want) {
		t.Errorf("observer saw %d records, TraceProgram %d (or contents differ)",
			len(sink.recs), len(want))
	}
}
