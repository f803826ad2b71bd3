package cfg

import (
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// buildNestedLoops constructs the IR equivalent of:
//
//	func f(n) {            // line
//	  i = 0                // 2
//	  for i < n {          // 3 (header outer)
//	    j = 0              // 4
//	    for j < n {        // 5 (header inner)
//	      j = j + 1        // 6
//	    }
//	    i = i + 1          // 7
//	  }
//	}
func buildNestedLoops(t *testing.T) (*ir.Function, *Graph) {
	t.Helper()
	f := ir.NewFunction("f", ir.Void, &ir.Param{Name: "n", Typ: ir.I64})
	b := ir.NewBuilder(f)
	nSlot := b.Alloca("n", ir.I64, -1)
	iSlot := b.Alloca("i", ir.I64, 2)
	jSlot := b.Alloca("j", ir.I64, 4)
	b.Store(&ir.Param{Name: "n", Typ: ir.I64}, nSlot, -1)
	b.Store(ir.ConstInt(0), iSlot, 2)
	outerCond := f.NewBlock("outer.cond")
	outerBody := f.NewBlock("outer.body")
	innerCond := f.NewBlock("inner.cond")
	innerBody := f.NewBlock("inner.body")
	outerLatch := f.NewBlock("outer.latch")
	exit := f.NewBlock("exit")
	b.Br(outerCond, 3)

	b.SetBlock(outerCond)
	iv := b.Load(iSlot, 3)
	nv := b.Load(nSlot, 3)
	c := b.Cmp(ir.CmpLT, iv, nv, 3)
	b.CondBr(c, outerBody, exit, 3)

	b.SetBlock(outerBody)
	b.Store(ir.ConstInt(0), jSlot, 4)
	b.Br(innerCond, 5)

	b.SetBlock(innerCond)
	jv := b.Load(jSlot, 5)
	nv2 := b.Load(nSlot, 5)
	c2 := b.Cmp(ir.CmpLT, jv, nv2, 5)
	b.CondBr(c2, innerBody, outerLatch, 5)

	b.SetBlock(innerBody)
	jv2 := b.Load(jSlot, 6)
	jinc := b.Bin(trace.OpAdd, jv2, ir.ConstInt(1), 6)
	b.Store(jinc, jSlot, 6)
	b.Br(innerCond, 6)

	b.SetBlock(outerLatch)
	iv2 := b.Load(iSlot, 7)
	iinc := b.Bin(trace.OpAdd, iv2, ir.ConstInt(1), 7)
	b.Store(iinc, iSlot, 7)
	b.Br(outerCond, 7)

	b.SetBlock(exit)
	b.Ret(nil, 8)

	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f, New(f)
}

func TestRPOStartsAtEntry(t *testing.T) {
	f, g := buildNestedLoops(t)
	if len(g.Blocks) != len(f.Blocks) {
		t.Fatalf("RPO has %d blocks, function has %d", len(g.Blocks), len(f.Blocks))
	}
	if g.Blocks[0] != f.Entry() {
		t.Error("RPO does not start at entry")
	}
	// Every edge u->v with v not a loop header must satisfy rpo(u) < rpo(v).
	for _, b := range g.Blocks {
		for _, s := range g.Succs[b] {
			if g.Index[s] <= g.Index[b] && !g.Dominates(s, b) {
				t.Errorf("non-back edge %s->%s violates RPO", b.Name, s.Name)
			}
		}
	}
}

func TestPredsSuccsConsistent(t *testing.T) {
	_, g := buildNestedLoops(t)
	for _, b := range g.Blocks {
		for _, s := range g.Succs[b] {
			found := false
			for _, p := range g.Preds[s] {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %s->%s missing from preds", b.Name, s.Name)
			}
		}
	}
}

func TestDominators(t *testing.T) {
	f, g := buildNestedLoops(t)
	entry := f.Entry()
	for _, b := range g.Blocks {
		if !g.Dominates(entry, b) {
			t.Errorf("entry does not dominate %s", b.Name)
		}
	}
	outerCond := f.Blocks[1]
	innerCond := f.Blocks[3]
	if !g.Dominates(outerCond, innerCond) {
		t.Error("outer.cond should dominate inner.cond")
	}
	if g.Dominates(innerCond, outerCond) {
		t.Error("inner.cond should not dominate outer.cond")
	}
}

func TestLoopDetection(t *testing.T) {
	f, g := buildNestedLoops(t)
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Errorf("depths = %d, %d; want 1, 2", outer.Depth, inner.Depth)
	}
	if outer.Header != f.Blocks[1] {
		t.Errorf("outer header = %s", outer.Header.Name)
	}
	if inner.Header != f.Blocks[3] {
		t.Errorf("inner header = %s", inner.Header.Name)
	}
	if inner.Parent != outer {
		t.Error("inner loop not nested in outer")
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer loop body must contain inner header")
	}
	if outer.Contains(f.Blocks[6]) {
		t.Error("outer loop must not contain exit block")
	}
}

func TestLoopLineRange(t *testing.T) {
	_, g := buildNestedLoops(t)
	loops := g.Loops()
	lo, hi := loops[0].LineRange()
	if lo != 3 || hi != 7 {
		t.Errorf("outer line range = [%d,%d], want [3,7]", lo, hi)
	}
	lo, hi = loops[1].LineRange()
	if lo != 5 || hi != 6 {
		t.Errorf("inner line range = [%d,%d], want [5,6]", lo, hi)
	}
}

func TestOutermostLoopInRange(t *testing.T) {
	_, g := buildNestedLoops(t)
	l := g.OutermostLoopInRange(3, 7)
	if l == nil || l.Depth != 1 {
		t.Fatalf("OutermostLoopInRange(3,7) = %+v, want outer loop", l)
	}
	l = g.OutermostLoopInRange(5, 6)
	if l == nil || l.Depth != 2 {
		t.Fatalf("OutermostLoopInRange(5,6) should find the inner loop, got %+v", l)
	}
	if g.OutermostLoopInRange(100, 200) != nil {
		t.Error("range with no loops should return nil")
	}
}

func TestInductionVariable(t *testing.T) {
	_, g := buildNestedLoops(t)
	loops := g.Loops()
	iv := g.InductionVariable(loops[0])
	if iv == nil || iv.Name != "i" {
		t.Fatalf("outer induction variable = %v, want i", iv)
	}
	iv = g.InductionVariable(loops[1])
	if iv == nil || iv.Name != "j" {
		t.Fatalf("inner induction variable = %v, want j", iv)
	}
	if g.InductionVariable(nil) != nil {
		t.Error("InductionVariable(nil) should be nil")
	}
}

func TestStraightLineNoLoops(t *testing.T) {
	f := ir.NewFunction("g", ir.Void)
	b := ir.NewBuilder(f)
	b.Alloca("x", ir.I64, 1)
	b.Ret(nil, 2)
	g := New(f)
	if len(g.Loops()) != 0 {
		t.Error("straight-line code should have no loops")
	}
	if g.idom[f.Entry()] != f.Entry() {
		t.Error("entry must be its own idom")
	}
}

func TestUnreachableBlockExcluded(t *testing.T) {
	f := ir.NewFunction("g", ir.Void)
	b := ir.NewBuilder(f)
	b.Ret(nil, 1)
	dead := f.NewBlock("dead")
	b.SetBlock(dead)
	b.Ret(nil, 2)
	g := New(f)
	if len(g.Blocks) != 1 {
		t.Errorf("CFG has %d blocks, want 1 (unreachable excluded)", len(g.Blocks))
	}
}

// Diamond CFG: entry -> a, b -> join. Join's idom must be entry.
func TestDominatorsDiamond(t *testing.T) {
	f := ir.NewFunction("g", ir.Void)
	b := ir.NewBuilder(f)
	x := b.Alloca("x", ir.I64, 1)
	cond := b.Load(x, 1)
	ta := f.NewBlock("a")
	tb := f.NewBlock("b")
	join := f.NewBlock("join")
	b.CondBr(cond, ta, tb, 1)
	b.SetBlock(ta)
	b.Br(join, 2)
	b.SetBlock(tb)
	b.Br(join, 3)
	b.SetBlock(join)
	b.Ret(nil, 4)
	g := New(f)
	if g.idom[join] != f.Entry() {
		t.Errorf("idom(join) = %s, want entry", g.idom[join].Name)
	}
	if g.Dominates(ta, join) {
		t.Error("a should not dominate join")
	}
}
