package ir

import (
	"strings"
	"testing"
	"testing/quick"

	"autocheck/internal/trace"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    Type
		size int64
		str  string
	}{
		{I64, 8, "i64"},
		{F64, 8, "f64"},
		{Void, 0, "void"},
		{Ptr(I64), 8, "i64*"},
		{Array(F64, 10), 80, "[10 x f64]"},
		{Array(Array(I64, 4), 3), 96, "[3 x [4 x i64]]"},
		{Ptr(Array(F64, 5)), 8, "[5 x f64]*"},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.size {
			t.Errorf("%s.Size() = %d, want %d", c.str, got, c.size)
		}
		if got := c.t.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !IsInt(I64) || !IsFloat(F64) || !IsVoid(Void) || !IsPtr(Ptr(I64)) || !IsArray(Array(I64, 2)) {
		t.Error("basic predicates failed")
	}
	if IsInt(F64) || IsFloat(I64) || IsPtr(I64) {
		t.Error("negative predicates failed")
	}
	if Pointee(Ptr(F64)) != Type(F64) {
		t.Error("Pointee")
	}
	if Pointee(I64) != nil {
		t.Error("Pointee of scalar should be nil")
	}
}

func TestTypeEqual(t *testing.T) {
	if !TypeEqual(Array(Array(I64, 4), 3), Array(Array(I64, 4), 3)) {
		t.Error("equal nested arrays reported unequal")
	}
	if TypeEqual(Array(I64, 4), Array(I64, 5)) {
		t.Error("different lengths reported equal")
	}
	if TypeEqual(Ptr(I64), Ptr(F64)) {
		t.Error("different pointees reported equal")
	}
	if !TypeEqual(Ptr(I64), Ptr(I64)) {
		t.Error("equal pointers reported unequal")
	}
}

// buildLoopFunc constructs: func f(n) { s = 0; for i = 0..n { s += i }; ret s }
func buildLoopFunc(t *testing.T) (*Module, *Function) {
	t.Helper()
	m := NewModule()
	f := m.AddFunc(NewFunction("f", I64, &Param{Name: "n", Typ: I64}))
	b := NewBuilder(f)
	nSlot := b.Alloca("n", I64, -1)
	sSlot := b.Alloca("s", I64, 1)
	iSlot := b.Alloca("i", I64, 2)
	b.Store(&Param{Name: "n", Typ: I64}, nSlot, -1)
	b.Store(ConstInt(0), sSlot, 1)
	b.Store(ConstInt(0), iSlot, 2)
	cond := f.NewBlock("for.cond")
	body := f.NewBlock("for.body")
	exit := f.NewBlock("for.end")
	b.Br(cond, 2)
	b.SetBlock(cond)
	iv := b.Load(iSlot, 2)
	nv := b.Load(nSlot, 2)
	c := b.Cmp(CmpLT, iv, nv, 2)
	b.CondBr(c, body, exit, 2)
	b.SetBlock(body)
	sv := b.Load(sSlot, 3)
	iv2 := b.Load(iSlot, 3)
	sum := b.Bin(trace.OpAdd, sv, iv2, 3)
	b.Store(sum, sSlot, 3)
	iv3 := b.Load(iSlot, 2)
	inc := b.Bin(trace.OpAdd, iv3, ConstInt(1), 2)
	b.Store(inc, iSlot, 2)
	b.Br(cond, 2)
	b.SetBlock(exit)
	ret := b.Load(sSlot, 4)
	b.Ret(ret, 4)
	return m, f
}

func TestBuilderProducesVerifiableIR(t *testing.T) {
	m, f := buildLoopFunc(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, f)
	}
}

func TestRegisterNumberingUnique(t *testing.T) {
	_, f := buildLoopFunc(t)
	seen := make(map[int]bool)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Producer() {
				if in.ID == 0 {
					t.Errorf("unnumbered producer %s", in)
				}
				if seen[in.ID] {
					t.Errorf("duplicate register %d", in.ID)
				}
				seen[in.ID] = true
			}
		}
	}
}

func TestValueNames(t *testing.T) {
	_, f := buildLoopFunc(t)
	entry := f.Entry()
	if got := entry.Instrs[0].ValueName(); got != "n" {
		t.Errorf("alloca name = %q, want n", got)
	}
	// A load is a temporary: numeric name.
	var load *Instr
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == trace.OpLoad {
				load = in
				break
			}
		}
		if load != nil {
			break
		}
	}
	if load == nil {
		t.Fatal("no load found")
	}
	for _, r := range load.ValueName() {
		if r < '0' || r > '9' {
			t.Errorf("temporary name %q is not numeric", load.ValueName())
		}
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	// Empty function.
	f := NewFunction("g", Void)
	if err := f.Verify(); err == nil {
		t.Error("empty function verified")
	}
	// Missing terminator.
	f = NewFunction("g", Void)
	b := NewBuilder(f)
	b.Alloca("x", I64, 1)
	if err := f.Verify(); err == nil {
		t.Error("block without terminator verified")
	}
	// Terminator in the middle.
	f = NewFunction("g", Void)
	b = NewBuilder(f)
	b.Ret(nil, 1)
	b.Cur.Append(&Instr{Op: trace.OpRet, Line: 2})
	if err := f.Verify(); err == nil {
		t.Error("double terminator verified")
	}
	// Store to non-pointer.
	f = NewFunction("g", Void)
	b = NewBuilder(f)
	in := &Instr{Op: trace.OpStore, Args: []Value{ConstInt(1), ConstInt(2)}, Line: 1}
	f.Number(in)
	b.Cur.Append(in)
	b.Ret(nil, 1)
	if err := f.Verify(); err == nil {
		t.Error("store to non-pointer verified")
	}
	// Call arg count mismatch.
	callee := NewFunction("h", Void, &Param{Name: "a", Typ: I64})
	f = NewFunction("g", Void)
	b = NewBuilder(f)
	bad := &Instr{Op: trace.OpCall, Typ: Void, Callee: callee, Line: 1}
	b.Cur.Append(bad)
	b.Ret(nil, 1)
	if err := f.Verify(); err == nil {
		t.Error("bad call arity verified")
	}
}

func TestPrinterOutput(t *testing.T) {
	m, f := buildLoopFunc(t)
	s := m.String()
	for _, want := range []string{"func i64 @f(i64 %n)", "alloca i64", "icmp lt", "br label", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
	_ = f
}

func TestBlockSuccs(t *testing.T) {
	_, f := buildLoopFunc(t)
	entry := f.Entry()
	succs := entry.Succs()
	if len(succs) != 1 || succs[0].Name != f.Blocks[1].Name {
		t.Errorf("entry succs = %v", succs)
	}
	cond := f.Blocks[1]
	if got := len(cond.Succs()); got != 2 {
		t.Errorf("cond has %d succs, want 2", got)
	}
}

func TestModuleLookup(t *testing.T) {
	m, f := buildLoopFunc(t)
	if m.Func("f") != f {
		t.Error("Func lookup failed")
	}
	if m.Func("nope") != nil {
		t.Error("Func lookup of missing name should be nil")
	}
	g := m.AddGlobal(&Global{Name: "A", Elem: Array(F64, 8)})
	if m.Global("A") != g {
		t.Error("Global lookup failed")
	}
	if m.Global("B") != nil {
		t.Error("Global lookup of missing name should be nil")
	}
	if !IsPtr(g.Type()) {
		t.Error("global value type must be a pointer")
	}
}

func TestGEPTypes(t *testing.T) {
	f := NewFunction("g", Void)
	b := NewBuilder(f)
	arr := b.Alloca("u", Array(Array(F64, 4), 3), 1)
	// LLVM semantics: first index is pointer arithmetic, the rest descend.
	g0 := b.GEP(arr, 1, ConstInt(0))
	if g0.Type().String() != "[3 x [4 x f64]]*" {
		t.Errorf("gep arithmetic-only type = %s", g0.Type())
	}
	g1 := b.GEP(arr, 1, ConstInt(0), ConstInt(2))
	if g1.Type().String() != "[4 x f64]*" {
		t.Errorf("gep 1 level type = %s", g1.Type())
	}
	g2 := b.GEP(arr, 1, ConstInt(0), ConstInt(2), ConstInt(3))
	if g2.Type().String() != "f64*" {
		t.Errorf("gep 2 level type = %s", g2.Type())
	}
	b.Ret(nil, 1)
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Property: array sizes compose multiplicatively for arbitrary nesting.
func TestQuickArraySize(t *testing.T) {
	f := func(dims []uint8) bool {
		if len(dims) > 4 {
			dims = dims[:4]
		}
		var typ Type = F64
		want := int64(8)
		for _, d := range dims {
			n := int64(d%8) + 1
			typ = Array(typ, n)
			want *= n
		}
		return typ.Size() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredName(t *testing.T) {
	for p, want := range map[int]string{CmpEQ: "eq", CmpNE: "ne", CmpLT: "lt", CmpLE: "le", CmpGT: "gt", CmpGE: "ge", 42: "pred42"} {
		if got := PredName(p); got != want {
			t.Errorf("PredName(%d) = %q, want %q", p, got, want)
		}
	}
}
