package minic

import (
	"strings"
	"testing"
	"testing/quick"

	"autocheck/internal/ir"
)

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("int a = 10; // comment\nfloat b; /* block\ncomment */ a += 2.5e3;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwInt, IDENT, Assign, INTLIT, Semi, KwFloat, IDENT, Semi, IDENT, PlusAssign, FLOATLIT, Semi, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Tokenize("int a;\n  b = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token at %v", toks[0].Pos)
	}
	// 'b' is on line 2 col 3.
	if toks[3].Pos.Line != 2 || toks[3].Pos.Col != 3 {
		t.Errorf("'b' at %v, want 2:3", toks[3].Pos)
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := Tokenize("== != <= >= < > && || ! ++ -- += -= *= /= %")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{EqEq, NotEq, Le, Ge, Lt, Gt, AndAnd, OrOr, Not, Inc, Dec, PlusAssign, MinusAssign, StarAssign, SlashAssign, Percent, EOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "1e", "&", "|"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) succeeded, want error", src)
		}
	}
}

func TestLexerDoubleKeyword(t *testing.T) {
	toks, err := Tokenize("double x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != KwFloat {
		t.Errorf("double lexes as %s, want 'float' keyword", toks[0].Kind)
	}
}

// The paper's Fig. 4 example code, transliterated to mini-C.
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
}
`

func TestParseFig4(t *testing.T) {
	f, err := Parse(fig4Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Funcs) != 2 {
		t.Fatalf("parsed %d functions, want 2", len(f.Funcs))
	}
	foo := f.Funcs[0]
	if foo.Name != "foo" || len(foo.Params) != 2 {
		t.Errorf("foo = %+v", foo)
	}
	if foo.Params[0].Type.Dims[0] != 0 {
		t.Errorf("pointer param should have unsized dim, got %v", foo.Params[0].Type.Dims)
	}
	main := f.Funcs[1]
	if main.Name != "main" || main.Ret != BaseInt {
		t.Errorf("main = %+v", main)
	}
}

func TestCheckFig4(t *testing.T) {
	f, err := CompileSource(fig4Source)
	if err != nil {
		t.Fatal(err)
	}
	// The a[10] declaration resolves to [10 x i64].
	main := f.Funcs[1]
	decl := main.Body.Stmts[0].(*DeclStmt)
	if decl.Decls[0].Name != "a" {
		t.Fatalf("first decl is %s", decl.Decls[0].Name)
	}
	typ := ResolveType(decl.Decls[0].Type)
	if typ.String() != "[10 x i64]" {
		t.Errorf("a resolves to %s", typ)
	}
}

func TestResolveType(t *testing.T) {
	cases := []struct {
		spec TypeSpec
		want string
	}{
		{TypeSpec{Base: BaseInt}, "i64"},
		{TypeSpec{Base: BaseFloat}, "f64"},
		{TypeSpec{Base: BaseVoid}, "void"},
		{TypeSpec{Base: BaseInt, Dims: []int64{10}}, "[10 x i64]"},
		{TypeSpec{Base: BaseFloat, Dims: []int64{3, 4}}, "[3 x [4 x f64]]"},
		{TypeSpec{Base: BaseFloat, Dims: []int64{0}}, "f64*"},
		{TypeSpec{Base: BaseFloat, Dims: []int64{0, 8}}, "[8 x f64]*"},
	}
	for _, c := range cases {
		if got := ResolveType(c.spec).String(); got != c.want {
			t.Errorf("ResolveType(%+v) = %s, want %s", c.spec, got, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse("int main() { int x; x = 1 + 2 * 3 < 4 && 5 == 6; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	asg := f.Funcs[0].Body.Stmts[1].(*AssignStmt)
	top, ok := asg.RHS.(*BinaryExpr)
	if !ok || top.Op != AndAnd {
		t.Fatalf("top op = %v, want &&", asg.RHS)
	}
	lt, ok := top.X.(*BinaryExpr)
	if !ok || lt.Op != Lt {
		t.Fatalf("left of && = %v, want <", top.X)
	}
	add, ok := lt.X.(*BinaryExpr)
	if !ok || add.Op != Plus {
		t.Fatalf("left of < = %v, want +", lt.X)
	}
	if mul, ok := add.Y.(*BinaryExpr); !ok || mul.Op != Star {
		t.Fatalf("right of + = %v, want *", add.Y)
	}
}

func TestParseMultiDimIndex(t *testing.T) {
	f, err := CompileSource("int main() { float u[4][5]; u[1][2] = 3.0; float x; x = u[0][0]; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	asg := f.Funcs[0].Body.Stmts[1].(*AssignStmt)
	idx, ok := asg.LHS.(*IndexExpr)
	if !ok {
		t.Fatalf("LHS = %T", asg.LHS)
	}
	if !ir.IsFloat(idx.ResolvedType()) {
		t.Errorf("u[1][2] type = %s, want f64", idx.ResolvedType())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int main() { return 0 }",            // missing semi
		"int main() { if x { } return 0; }",  // missing paren
		"int main() { for (;;) }",            // missing body
		"int 3x;",                            // bad name
		"int a[0];",                          // zero dim
		"void main() { }",                    // fine parse-wise; sema checks elsewhere
		"int main() { x = ; return 0; }",     // missing expr
		"int main() { int a[2] = 5; }",       // array initializer
		"banana main() { }",                  // unknown type
		"int main() { return 0; } int main(", // truncated
	}
	for _, src := range cases[0:5] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	for _, src := range cases[6:] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{"int main() { x = 1; return 0; }", "undeclared"},
		{"int main() { int x; int x; return 0; }", "redeclared"},
		{"int main() { int a[3]; a = 1; return 0; }", "cannot assign"},
		{"int main() { int x; x = 1 % 2.0; return 0; }", "integer operands"},
		{"int main() { float f; f = f[2]; return 0; }", "cannot index"},
		{"int main() { break; return 0; }", "break outside loop"},
		{"int main() { continue; return 0; }", "continue outside loop"},
		{"void f() { return 1; } int main() { return 0; }", "void function"},
		{"int f() { return; } int main() { return 0; }", "must return"},
		{"int main() { foo(); return 0; }", "undeclared function"},
		{"void foo(int x) {} int main() { foo(1, 2); return 0; }", "takes 1 arguments"},
		{"void foo(float p[]) {} int main() { int a[4]; foo(a); return 0; }", "cannot pass"},
		{"int main() { print(); sqrt(1, 2); return 0; }", "takes 1 arguments"},
		{"int main() { int a[2]; print(a); return 0; }", "must be scalar"},
		{"int x; int x; int main() { return 0; }", "redeclared"},
		{"int foo() { return 1; } int foo() { return 2; } int main() { return 0; }", "redeclared"},
		{"int print() { return 1; } int main() { return 0; }", "shadows a builtin"},
		{"int notmain() { return 0; }", "no main"},
		{"int main(int argc) { return 0; }", "no parameters"},
	}
	for _, c := range cases {
		_, err := CompileSource(c.src)
		if err == nil {
			t.Errorf("CompileSource(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("CompileSource(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestSemaPromotion(t *testing.T) {
	f, err := CompileSource("int main() { float x; int i; i = 2; x = i * 1.5; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	asg := f.Funcs[0].Body.Stmts[3].(*AssignStmt)
	if !ir.IsFloat(asg.RHS.ResolvedType()) {
		t.Errorf("i * 1.5 type = %s, want f64", asg.RHS.ResolvedType())
	}
}

func TestSemaShadowing(t *testing.T) {
	// Inner scopes may shadow outer names (Challenge 2 scenario).
	src := `int sum;
void f() { int sum; sum = 1; }
int main() { sum = 2; f(); { int sum; sum = 3; } return 0; }`
	if _, err := CompileSource(src); err != nil {
		t.Fatalf("shadowing should be legal: %v", err)
	}
}

func TestSemaBuiltins(t *testing.T) {
	src := `int main() {
  float x;
  x = sqrt(2.0) + pow(2.0, 3.0) + fabs(0.0 - 1.0) + exp(1.0);
  int r;
  r = rand();
  print(x, r);
  return 0;
}`
	if _, err := CompileSource(src); err != nil {
		t.Fatal(err)
	}
}

func TestSemaGlobalInitializerRejected(t *testing.T) {
	if _, err := CompileSource("int g = 5; int main() { return 0; }"); err == nil {
		t.Error("global initializer should be rejected")
	}
}

func TestParseForVariants(t *testing.T) {
	srcs := []string{
		"int main() { for (;;) { break; } return 0; }",
		"int main() { int i; for (i = 0; i < 3; i++) {} return 0; }",
		"int main() { for (int i = 0; i < 3; ++i) { continue; } return 0; }",
		"int main() { int i; i = 0; while (i < 3) { i += 1; } return 0; }",
	}
	for _, src := range srcs {
		if _, err := CompileSource(src); err != nil {
			t.Errorf("CompileSource(%q): %v", src, err)
		}
	}
}

func TestPointerStarParam(t *testing.T) {
	f, err := CompileSource("void foo(int *p) { p[0] = 1; } int main() { int a[4]; foo(a); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	pt := ResolveType(f.Funcs[0].Params[0].Type)
	if pt.String() != "i64*" {
		t.Errorf("int *p resolves to %s, want i64*", pt)
	}
}

// Property: the lexer never loses or merges identifier/number tokens for
// generated well-formed declarations.
func TestQuickLexerIdentifiers(t *testing.T) {
	f := func(n uint8) bool {
		names := make([]string, 0, n%16+1)
		var src strings.Builder
		for i := 0; i <= int(n%16); i++ {
			name := "v" + strings.Repeat("x", i+1)
			names = append(names, name)
			src.WriteString("int " + name + ";\n")
		}
		toks, err := Tokenize(src.String())
		if err != nil {
			return false
		}
		got := 0
		for _, tok := range toks {
			if tok.Kind == IDENT {
				if tok.Text != names[got] {
					return false
				}
				got++
			}
		}
		return got == len(names)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCommaDeclarations(t *testing.T) {
	f, err := CompileSource("int main() { int a = 1, b = 2, c; c = a + b; print(c); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	decl := f.Funcs[0].Body.Stmts[0].(*DeclStmt)
	if len(decl.Decls) != 3 {
		t.Fatalf("comma declaration produced %d decls, want 3", len(decl.Decls))
	}
	if decl.Decls[2].Init != nil {
		t.Error("c should have no initializer")
	}
}

func TestParseDanglingElse(t *testing.T) {
	f, err := CompileSource(`int main() {
  int x = 0;
  if (1) if (0) x = 1; else x = 2;
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	outer := f.Funcs[0].Body.Stmts[1].(*IfStmt)
	if outer.Else != nil {
		t.Error("else must bind to the inner if")
	}
	inner := outer.Then.(*IfStmt)
	if inner.Else == nil {
		t.Error("inner if lost its else")
	}
}

func TestErrorPositionsReported(t *testing.T) {
	_, err := CompileSource("int main() {\n  int x;\n  y = 1;\n  return 0;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "3:") {
		t.Errorf("error %q should carry line 3", err)
	}
}

func TestVoidParamSyntax(t *testing.T) {
	if _, err := CompileSource("int f(void) { return 1; } int main() { print(f()); return 0; }"); err != nil {
		t.Errorf("f(void): %v", err)
	}
}

func TestUnaryChains(t *testing.T) {
	f, err := CompileSource("int main() { int x; x = - - 5; x = !!x; print(x); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	_ = f
}

func TestTypeSpecIsArray(t *testing.T) {
	if (TypeSpec{Base: BaseInt}).IsArray() {
		t.Error("scalar spec reported as array")
	}
	if !(TypeSpec{Base: BaseInt, Dims: []int64{3}}).IsArray() {
		t.Error("array spec not reported as array")
	}
}

func TestBaseTypeString(t *testing.T) {
	for b, want := range map[BaseType]string{BaseInt: "int", BaseFloat: "float", BaseVoid: "void"} {
		if b.String() != want {
			t.Errorf("%v.String() = %q", b, b.String())
		}
	}
}

func TestKindStringFallback(t *testing.T) {
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still render")
	}
}
