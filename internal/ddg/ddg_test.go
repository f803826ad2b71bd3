package ddg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildFig5 constructs the complete DDG of the paper's Fig. 5(c): MLI
// variables s, r, a, b, sum; local m; registers for the main-loop
// computations of the example code. Simplified to one loop iteration's
// worth of register instances, which is what Fig. 5 depicts.
func buildFig5(g *Graph) (mli map[string]*Node) {
	mli = make(map[string]*Node)
	for _, v := range []string{"s", "r", "a", "b", "sum"} {
		mli[v] = g.Node(v, KindMLI)
	}
	it := g.Node("it", KindLocal)
	m := g.Node("m", KindLocal)
	r1 := g.Node("1", KindRegister)
	r3 := g.Node("3", KindRegister)
	r4 := g.Node("4", KindRegister)
	r5 := g.Node("5", KindRegister)
	r8p := g.Node("8", KindRegister)
	r10 := g.Node("10", KindRegister)
	r11 := g.Node("11", KindRegister)
	r12 := g.Node("12", KindRegister)
	r13 := g.Node("13", KindRegister)

	// s = it + 1   (t1: s-Write)
	g.AddEdge(it, r1, 1)
	g.AddEdge(r1, mli["s"], 1)
	// a[it] = s * r  (t2: s-Read, t3: r-Read, t4: a-Write)
	g.AddEdge(mli["s"], r3, 2)
	g.AddEdge(mli["r"], r3, 3)
	g.AddEdge(r3, mli["a"], 4)
	// foo(a,b): q[i] = p[i] * 2  (t5: a-Read, t6: b-Write)
	g.AddEdge(mli["a"], r4, 5)
	g.AddEdge(r4, r5, 5)
	g.AddEdge(r5, mli["b"], 6)
	// r++  (t7: r-Read, t8: r-Write)
	g.AddEdge(mli["r"], r8p, 7)
	g.AddEdge(r8p, mli["r"], 8)
	// m = a[it] + b[it]  (t9: a-Read, t10: b-Read)
	g.AddEdge(mli["a"], r10, 9)
	g.AddEdge(mli["b"], r11, 10)
	g.AddEdge(r10, r12, 10)
	g.AddEdge(r11, r12, 10)
	g.AddEdge(r12, m, 10)
	// sum = m  (t11: sum-Write)
	g.AddEdge(m, r13, 11)
	g.AddEdge(r13, mli["sum"], 11)
	return mli
}

func isMLI(n *Node) bool { return n.Kind == KindMLI }

func TestContractFig5(t *testing.T) {
	g := New()
	buildFig5(g)
	c := g.Contract(isMLI)
	// The contracted DDG (Fig. 5(d)) has exactly the MLI variables.
	if len(c.Nodes()) != 5 {
		t.Fatalf("contracted DDG has %d nodes, want 5", len(c.Nodes()))
	}
	for _, n := range c.Nodes() {
		if n.Kind != KindMLI {
			t.Errorf("non-MLI node %s survived contraction", n.Name)
		}
	}
	// Edge structure of Fig. 5(d): s->a, r->a, a->b, r->r, a->sum, b->sum.
	wantEdges := map[string]bool{
		"s->a": true, "r->a": true, "a->b": true,
		"r->r": true, "a->sum": true, "b->sum": true,
	}
	got := make(map[string]bool)
	for _, n := range c.Nodes() {
		for _, e := range c.out[n] {
			got[e.From.Name+"->"+e.To.Name] = true
		}
	}
	for k := range wantEdges {
		if !got[k] {
			t.Errorf("contracted DDG missing edge %s; got %v", k, got)
		}
	}
	for k := range got {
		if !wantEdges[k] {
			t.Errorf("contracted DDG has unexpected edge %s", k)
		}
	}
}

func TestEventsFig5(t *testing.T) {
	g := New()
	buildFig5(g)
	c := g.Contract(isMLI)
	evs := c.Events()
	// Fig. 5(e): 1: s-Write; 2: s-Read; 3: r-Read; 4: a-Write; 5: a-Read;
	// 6: b-Write; 7: r-Read; 8: r-Write; 9: a-Read; 10: b-Read; 11: sum-Write.
	want := "1: s-Write; 2: s-Read; 3: r-Read; 4: a-Write; 5: a-Read; 6: b-Write; 7: r-Read; 8: r-Write; 9: a-Read; 10: b-Read; 11: sum-Write"
	if got := formatEvents(evs); got != want {
		t.Errorf("events:\n got %s\nwant %s", got, want)
	}
}

func TestWriteMarksSurviveContraction(t *testing.T) {
	g := New()
	x := g.Node("x", KindMLI)
	r := g.Node("7", KindRegister)
	// x = <const> : a store with a register chain that has no variable
	// roots — only a write mark should remain.
	g.AddEdge(r, x, 3)
	c := g.Contract(isMLI)
	evs := c.Events()
	if len(evs) != 1 || evs[0].Kind != Write || evs[0].Node.Name != "x" || evs[0].Time != 3 {
		t.Errorf("events = %v, want single x-Write@3", evs)
	}
}

func TestMarkWriteDirect(t *testing.T) {
	g := New()
	x := g.Node("x", KindMLI)
	g.MarkWrite(x, 5)
	c := g.Contract(isMLI)
	evs := c.Events()
	if len(evs) != 1 || evs[0].Kind != Write || evs[0].Time != 5 {
		t.Errorf("events = %v", evs)
	}
}

func TestContractChainDepth(t *testing.T) {
	// u -> r1 -> r2 -> r3 -> v must contract to u -> v.
	g := New()
	u := g.Node("u", KindMLI)
	v := g.Node("v", KindMLI)
	prev := Node{}
	_ = prev
	cur := u
	for i := 0; i < 10; i++ {
		r := g.Node("r"+string(rune('0'+i)), KindRegister)
		g.AddEdge(cur, r, int64(i))
		cur = r
	}
	g.AddEdge(cur, v, 99)
	c := g.Contract(isMLI)
	ps := parents(c, c.Lookup("v"))
	if len(ps) != 1 || ps[0].Name != "u" {
		t.Errorf("parents of v = %v, want [u]", ps)
	}
	// The surviving edge carries the downstream store time.
	if es := c.in[c.Lookup("v")]; len(es) != 1 || es[0].Time != 99 {
		t.Errorf("edge into v = %v, want time 99", es)
	}
}

func TestContractFanInFanOut(t *testing.T) {
	// (u, w) -> r -> (v1, v2) contracts to full bipartite.
	g := New()
	u := g.Node("u", KindMLI)
	w := g.Node("w", KindMLI)
	v1 := g.Node("v1", KindMLI)
	v2 := g.Node("v2", KindMLI)
	r := g.Node("r", KindRegister)
	g.AddEdge(u, r, 1)
	g.AddEdge(w, r, 1)
	g.AddEdge(r, v1, 2)
	g.AddEdge(r, v2, 3)
	c := g.Contract(isMLI)
	for _, v := range []*Node{v1, v2} {
		ps := parents(c, c.Lookup(v.Name))
		if len(ps) != 2 {
			t.Errorf("parents of %s = %v, want u and w", v.Name, ps)
		}
	}
}

func TestContractCycleThroughRegisters(t *testing.T) {
	// A register cycle (can arise from accumulated maps) must not hang.
	g := New()
	x := g.Node("x", KindMLI)
	r1 := g.Node("r1", KindRegister)
	r2 := g.Node("r2", KindRegister)
	g.AddEdge(r1, r2, 1)
	g.AddEdge(r2, r1, 2)
	g.AddEdge(x, r1, 3)
	g.AddEdge(r2, x, 4)
	c := g.Contract(isMLI)
	ps := parents(c, c.Lookup("x"))
	if len(ps) != 1 || ps[0].Name != "x" {
		t.Errorf("parents of x = %v, want [x] (self-dependency)", ps)
	}
}

func TestChildrenDedup(t *testing.T) {
	g := New()
	a := g.Node("a", KindMLI)
	b := g.Node("b", KindMLI)
	g.AddEdge(a, b, 1)
	g.AddEdge(a, b, 2)
	g.AddEdge(a, b, 3)
	if cs := g.Children(a); len(cs) != 1 {
		t.Errorf("Children dedup failed: %v", cs)
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
}

func TestDOTOutput(t *testing.T) {
	g := New()
	buildFig5(g)
	dot := g.DOT("fig5")
	for _, want := range []string{"digraph", "label=\"sum\"", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// Property: contraction preserves MLI-to-MLI reachability. For random
// DAGs, an MLI node u can reach MLI node v through non-MLI vertices in the
// complete graph iff there is a direct edge path in the contracted graph.
func TestQuickContractionPreservesReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 12 + rng.Intn(12)
		nodes := make([]*Node, n)
		for i := range nodes {
			kind := KindRegister
			if rng.Intn(3) == 0 {
				kind = KindMLI
			}
			nodes[i] = g.Node(nodeName(i), kind)
		}
		// Random DAG edges i -> j with i < j.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					g.AddEdge(nodes[i], nodes[j], int64(i*n+j))
				}
			}
		}
		c := g.Contract(isMLI)
		// Reachability through non-MLI vertices in g.
		reach := func(u, v *Node) bool {
			var dfs func(x *Node) bool
			seen := make(map[*Node]bool)
			dfs = func(x *Node) bool {
				for _, e := range g.out[x] {
					if e.To == v {
						return true
					}
					if e.To.Kind != KindMLI && !seen[e.To] {
						seen[e.To] = true
						if dfs(e.To) {
							return true
						}
					}
				}
				return false
			}
			return dfs(u)
		}
		for _, u := range nodes {
			if u.Kind != KindMLI {
				continue
			}
			for _, v := range nodes {
				if v.Kind != KindMLI {
					continue
				}
				want := reach(u, v)
				got := false
				cu, cv := c.Lookup(u.Name), c.Lookup(v.Name)
				for _, e := range c.out[cu] {
					if e.To == cv {
						got = true
					}
				}
				if want != got {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func nodeName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// Property: Events are sorted by time and contain one Write per store.
func TestQuickEventsOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var nodes []*Node
		for i := 0; i < 6; i++ {
			nodes = append(nodes, g.Node(nodeName(i), KindMLI))
		}
		for i := 0; i < 30; i++ {
			u := nodes[rng.Intn(len(nodes))]
			v := nodes[rng.Intn(len(nodes))]
			if u == v {
				continue
			}
			g.AddEdge(u, v, int64(rng.Intn(100)))
		}
		evs := g.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].Time < evs[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// parents returns the distinct source vertices of edges into n. A
// self-dependency (like r→r from "r++" in Fig. 5(d)) reports n itself.
func parents(g *Graph, n *Node) []*Node {
	var out []*Node
	for _, e := range g.in[n] {
		if !slices.Contains(out, e.From) {
			out = append(out, e.From)
		}
	}
	return out
}

// formatEvents renders an R/W sequence like the paper's Fig. 5(e).
func formatEvents(evs []Event) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprintf("%d: %s-%s", i+1, e.Node.Name, e.Kind)
	}
	return strings.Join(parts, "; ")
}

// listing renders a graph exactly: vertices with IDs in insertion order,
// then the R/W sequence.
func listing(g *Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%d:%s/%s ", n.ID, n.Name, n.Kind)
	}
	return b.String() + formatEvents(g.Events())
}

// TestRollbackRestoresMark: Rollback takes out every vertex, edge and
// write mark added since Mark — onto old vertices too — so the graph, and
// the ID the next vertex gets, are what they were; Commit keeps them.
func TestRollbackRestoresMark(t *testing.T) {
	g := New()
	a, b := g.Node("a", KindLocal), g.Node("b", KindLocal)
	g.AddEdge(a, b, 1)
	want := listing(g)
	grow := func() {
		r := g.Node("r#2", KindRegister)
		g.AddEdge(a, r, 2)
		g.AddEdge(r, b, 2)
		g.AddEdge(b, a, 3)
		g.MarkWrite(a, 4)
	}
	g.Mark()
	grow()
	g.Rollback()
	if got := listing(g); got != want || g.EdgeCount() != 1 || g.Lookup("r#2") != nil {
		t.Fatalf("after Rollback: %s, %d edges; want %s, 1 edge", got, g.EdgeCount(), want)
	}
	g.Mark()
	grow()
	g.Commit()
	if r := g.Lookup("r#2"); r == nil || r.ID != 2 || g.EdgeCount() != 4 {
		t.Fatalf("after Commit: %s, %d edges; want r#2 with ID 2 and 4 edges", listing(g), g.EdgeCount())
	}
}
