package interp

import (
	"fmt"
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// rulesModule is built by hand, because the front end converts every value
// to the type it is stored as and never indexes past a scalar: Stores
// that coerce an integer to a float and a float to an integer (a BitCast
// keeps its operand's value under a new type), a GetElementPtr whose third
// index follows f64, so the code table stops its strides there and the
// index is not applied, and a pointer stored and loaded back.
func rulesModule(t *testing.T) *ir.Module {
	t.Helper()
	mod := ir.NewModule()
	a := mod.AddGlobal(&ir.Global{Name: "a", Elem: ir.Array(ir.F64, 4)})
	fl := mod.AddGlobal(&ir.Global{Name: "f", Elem: ir.F64})
	in := mod.AddGlobal(&ir.Global{Name: "i", Elem: ir.I64})
	pp := mod.AddGlobal(&ir.Global{Name: "p", Elem: ir.Ptr(ir.F64)})
	main := mod.AddFunc(ir.NewFunction("main", ir.I64))
	b := ir.NewBuilder(main)
	b.Store(b.BitCast(ir.ConstInt(3), ir.F64, 1), fl, 1)
	b.Store(b.BitCast(ir.ConstFloat(7.9), ir.I64, 2), in, 2)
	past := &ir.Instr{Op: trace.OpGetElementPtr, Typ: ir.Ptr(ir.F64), Line: 3,
		Args: []ir.Value{a, ir.ConstInt(0), ir.ConstInt(2), ir.ConstInt(5)}}
	main.Number(past)
	b.Cur.Append(past)
	b.Store(past, pp, 4)
	b.Store(ir.ConstFloat(1.5), b.Load(pp, 5), 5)
	a2 := b.GEP(a, 6, ir.ConstInt(0), ir.ConstInt(2))
	b.CallBuiltin("print", ir.Void, []ir.Value{b.Load(fl, 6), b.Load(in, 6), b.Load(a2, 6)}, 6)
	b.Ret(ir.ConstInt(0), 7)
	if err := mod.Verify(); err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestResolutionRulesMatchReference: one program per rule by which the
// code table resolves an instruction once, each traced against the
// reference emitter, record for record, with its output checked. Runs
// listed with several outputs are traced on one fresh machine per output,
// back to back, the i-th with Rank i: there, the ranks call f and g in
// opposite orders, so the code addresses differ between the machines and
// a table, or a template, that one machine shared with the next would
// carry the wrong ones. On every run a BlockHook records each block it is
// handed: the record that follows must be that block's first
// instruction, and the hook must run once per frame entered and per
// branch.
func TestResolutionRulesMatchReference(t *testing.T) {
	cases := []struct {
		name string
		src  string     // mini-C, or
		mod  *ir.Module // a module built by hand
		outs []string   // one run per output
		// cells are globals' cells as the run leaves them: a Load coerces
		// what it reads, so only memory shows what a Store wrote.
		cells map[string]trace.Value
	}{
		{name: "GEP over a 2-D global, a float and an int never written", src: `
float g[3][4];
float never;
int inever;
int main() {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      g[i][j] = i * 10 + j;
  print(g[2][1], g[1][3], never, inever);
  return 0;
}`, outs: []string{"21.0 13.0 0.0 0\n"}},
		{name: "GEP over pointer parameters", src: `
void fill(float v[], int n) {
  for (int i = 0; i < n; i++) v[i] = i * 1.5;
}
float trace2(float m[][3], int n) {
  float s = 0.0;
  for (int i = 0; i < n; i++) s = s + m[i][i];
  return s;
}
int main() {
  float v[4];
  float m[3][3];
  fill(v, 4);
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 3; j++)
      m[i][j] = i * 3 + j;
  print(v[3], trace2(m, 3));
  return 0;
}`, outs: []string{"4.5 12.0\n"}},
		{name: "Store coercions, a GEP past a scalar, a stored pointer", mod: rulesModule(t), outs: []string{"3.0 7 1.5\n"},
			cells: map[string]trace.Value{"f": trace.FloatValue(3), "i": trace.IntValue(7)}},
		{name: "recursion", src: `
int down(int v[], int n) {
  int local = n * 2;
  v[n] = local;
  if (n == 0) return 0;
  return down(v, n - 1) + local;
}
int main() {
  int v[6];
  print(down(v, 5), v[5], v[0]);
  return 0;
}`, outs: []string{"30 10 0\n"}},
		{name: "two machines", src: `
float acc;
void f() { acc = acc + 1.0; }
void g() { acc = acc * 2.0; }
int main() {
  if (myrank() == 0) { f(); g(); } else { g(); f(); }
  print(acc);
  return 0;
}`, outs: []string{"2.0\n", "1.0\n"}},
	}
	for _, c := range cases {
		mod := c.mod
		if mod == nil {
			var err error
			if mod, err = Compile(c.src); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for rank, want := range c.outs {
			label := fmt.Sprintf("%s, rank %d", c.name, rank)
			tm, rm := New(mod), New(mod)
			tm.Rank, rm.Rank, tm.Ranks, rm.Ranks = rank, rank, len(c.outs), len(c.outs)
			type entry struct {
				at  int64 // records emitted before it
				blk *ir.Block
			}
			var entered []entry
			tm.BlockHook = func(m *Machine, _ *Frame, blk *ir.Block) error {
				entered = append(entered, entry{m.Steps, blk})
				return nil
			}
			got, out, err := templateRun(tm)
			ref, refOut, refErr := referenceRun(rm)
			if d := sameTrace(got, ref, out, refOut, err, refErr); d != "" {
				t.Errorf("%s: %s", label, d)
			}
			if err != nil || out != want {
				t.Errorf("%s: output %q, error %v; want %q", label, out, err, want)
				continue
			}
			for name, v := range c.cells {
				if addr, _ := tm.GlobalAddr(name); !tm.Mem[addr].Equal(v) {
					t.Errorf("%s: %s's cell holds %v, want %v", label, name, tm.Mem[addr], v)
				}
			}
			entries := 1 // main's
			for i := range got {
				r := &got[i]
				if r.Opcode == trace.OpBr || r.Opcode == trace.OpCall && mod.Func(calleeName(r)) != nil {
					entries++
				}
			}
			if len(entered) != entries {
				t.Errorf("%s: the hook ran %d times, want %d (main, each branch and each user call)", label, len(entered), entries)
			}
			for _, e := range entered {
				first := e.blk.Instrs[0]
				if r := &got[e.at]; r.Block != e.blk.Name || r.Opcode != first.Op || r.Line != first.Line {
					t.Errorf("%s: hook handed block %s, then record %s", label, e.blk.Name, r.String())
				}
			}
		}
	}
}

// calleeName is the name a Call record gives its callee: its operand of
// index 0.
func calleeName(r *trace.Record) string {
	for _, o := range r.Ops {
		if o.Index == 0 {
			return o.Name
		}
	}
	return ""
}
