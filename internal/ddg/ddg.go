// Package ddg implements the data dependency graph at the heart of
// AutoCheck's analysis (paper §IV-B): a directed graph whose vertices are
// main-loop-input (MLI) variables, local variables, and temporary register
// instances, with timestamped edges "source → destination" recorded each
// time a Store terminates a computation.
//
// The package provides the paper's Algorithm 1: contracting every vertex
// that is not an MLI variable so that only MLI-to-MLI dependencies remain
// (Fig. 5(c) → Fig. 5(d)), and the conversion of the contracted DDG into an
// execution-time-ordered sequence of Read/Write dependencies (Fig. 5(e))
// that drives critical-variable identification.
package ddg

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies graph vertices (Fig. 5(c) legend).
type Kind int

// Vertex kinds.
const (
	KindMLI Kind = iota // main-loop-input variable
	KindLocal
	KindRegister
)

func (k Kind) String() string {
	switch k {
	case KindMLI:
		return "mli"
	case KindLocal:
		return "local"
	default:
		return "reg"
	}
}

// Node is one vertex.
type Node struct {
	ID   int
	Name string
	Kind Kind
}

// Edge is a timestamped dependency: at dynamic time Time, the value of From
// flowed into To.
type Edge struct {
	From, To *Node
	Time     int64
}

// writeMark records that a vertex was overwritten at a given time, even if
// the written value had no variable sources (e.g. a constant store). These
// are needed so the extracted R/W sequence contains every Write.
type writeMark struct {
	node *Node
	time int64
}

// Graph is a mutable dependency graph.
type Graph struct {
	nodes   []*Node
	out     map[*Node][]Edge
	in      map[*Node][]Edge
	writes  []writeMark
	nameIdx map[string]*Node

	// Between Mark and Commit or Rollback: the vertex and write-mark
	// counts at Mark, and every edge added since.
	marked             bool
	markNodes, markWrs int
	journal            []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out:     make(map[*Node][]Edge),
		in:      make(map[*Node][]Edge),
		nameIdx: make(map[string]*Node),
	}
}

// Node returns (creating if necessary) the vertex with the given unique
// name. The kind of an existing vertex is not changed.
func (g *Graph) Node(name string, kind Kind) *Node {
	if n, ok := g.nameIdx[name]; ok {
		return n
	}
	n := &Node{ID: len(g.nodes), Name: name, Kind: kind}
	g.nodes = append(g.nodes, n)
	g.nameIdx[name] = n
	return n
}

// Lookup returns the vertex with the given name, or nil.
func (g *Graph) Lookup(name string) *Node { return g.nameIdx[name] }

// Nodes returns all vertices in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// AddEdge records a dependency from → to at dynamic time t.
func (g *Graph) AddEdge(from, to *Node, t int64) {
	e := Edge{From: from, To: to, Time: t}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	if g.marked {
		g.journal = append(g.journal, e)
	}
}

// Mark starts growing the graph tentatively: Commit keeps what is added
// from here on, Rollback takes it out again, leaving the graph as it was
// at Mark — vertex IDs included, so the next vertex gets the ID it would
// have got.
func (g *Graph) Mark() {
	g.marked, g.markNodes, g.markWrs = true, len(g.nodes), len(g.writes)
	g.journal = g.journal[:0]
}

// Commit keeps what was added since Mark.
func (g *Graph) Commit() {
	g.marked = false
	g.journal = g.journal[:0]
}

// Rollback removes every vertex, edge and write mark added since Mark.
func (g *Graph) Rollback() {
	// Edges are appended to both lists, so the journal pops them in
	// reverse.
	for i := len(g.journal) - 1; i >= 0; i-- {
		e := g.journal[i]
		g.out[e.From] = g.out[e.From][:len(g.out[e.From])-1]
		g.in[e.To] = g.in[e.To][:len(g.in[e.To])-1]
	}
	for _, n := range g.nodes[g.markNodes:] {
		delete(g.nameIdx, n.Name)
		delete(g.out, n)
		delete(g.in, n)
	}
	clear(g.nodes[g.markNodes:])
	g.nodes = g.nodes[:g.markNodes]
	clear(g.writes[g.markWrs:])
	g.writes = g.writes[:g.markWrs]
	g.Commit()
}

// MarkWrite records that node was overwritten at time t (used for stores
// whose sources resolve to no variable, e.g. constants).
func (g *Graph) MarkWrite(node *Node, t int64) {
	g.writes = append(g.writes, writeMark{node: node, time: t})
}

// Children returns the distinct destination vertices of edges out of n.
func (g *Graph) Children(n *Node) []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	for _, e := range g.out[n] {
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	return out
}

// EdgeCount returns the total number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// Contract implements the paper's Algorithm 1 generalized by a predicate:
// every vertex for which keep returns false is contracted — replaced by
// direct edges from its parents to its children — until only kept vertices
// remain. Edges inherit the timestamp of the edge into the contracted
// vertex's child (the downstream store time), which preserves the
// execution-time ordering of the extracted R/W sequence. A contracted
// vertex with no parents simply disappears, but its children's writes are
// preserved as write marks (the paper contracts such vertices "while
// retaining its dependencies").
//
// The result is a new graph containing only kept vertices.
func (g *Graph) Contract(keep func(*Node) bool) *Graph {
	res := New()
	for _, n := range g.nodes {
		if keep(n) {
			res.Node(n.Name, n.Kind)
		}
	}
	// For every kept vertex, resolve each incoming edge backwards through
	// non-kept vertices to its kept roots. Resolution is computed once for
	// all vertices by condensing the non-kept subgraph into strongly
	// connected components (accumulator variables like "rho += ..." form
	// genuine cycles) and propagating root sets in topological order —
	// linear in the graph size.
	roots := g.resolveRoots(keep)
	for _, n := range g.nodes {
		if !keep(n) {
			continue
		}
		dst := res.Node(n.Name, n.Kind)
		for _, e := range g.in[n] {
			var srcs []*Node
			if keep(e.From) {
				srcs = []*Node{e.From}
			} else {
				srcs = roots[e.From]
			}
			if len(srcs) == 0 {
				res.MarkWrite(dst, e.Time)
				continue
			}
			for _, s := range srcs {
				res.AddEdge(res.Node(s.Name, s.Kind), dst, e.Time)
			}
		}
	}
	for _, w := range g.writes {
		if keep(w.node) {
			res.MarkWrite(res.Node(w.node.Name, w.node.Kind), w.time)
		}
	}
	return res
}

// resolveRoots computes, for every non-kept vertex, the set of kept
// vertices reachable by walking parent (incoming) edges through non-kept
// vertices. It runs an iterative Tarjan SCC over the backward-walk graph
// of non-kept vertices; when a component completes, all components it can
// reach are already resolved, so its root set is the union over edges
// leaving the component.
func (g *Graph) resolveRoots(keep func(*Node) bool) map[*Node][]*Node {
	// Backward-walk neighbors: the non-kept sources of incoming edges.
	nb := func(v *Node) []*Node {
		var out []*Node
		for _, e := range g.in[v] {
			if !keep(e.From) {
				out = append(out, e.From)
			}
		}
		return out
	}
	index := make(map[*Node]int)
	low := make(map[*Node]int)
	onstack := make(map[*Node]bool)
	comp := make(map[*Node]int)
	compRoots := make(map[int][]*Node)
	var stack []*Node
	counter := 0
	nextComp := 1 // component ids start at 1 so the map zero value is "unassigned"

	type frame struct {
		v  *Node
		ns []*Node
		ni int
	}
	var frames []frame
	start := func(v *Node) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onstack[v] = true
		frames = append(frames, frame{v: v, ns: nb(v)})
	}
	for _, root := range g.nodes {
		if keep(root) {
			continue
		}
		if _, seen := index[root]; seen {
			continue
		}
		start(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ni < len(f.ns) {
				w := f.ns[f.ni]
				f.ni++
				if _, seen := index[w]; !seen {
					start(w)
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// f.v is complete.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// Pop the component and compute its root set.
			id := nextComp
			nextComp++
			var members []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstack[m] = false
				comp[m] = id
				members = append(members, m)
				if m == v {
					break
				}
			}
			seen := make(map[*Node]bool)
			var rs []*Node
			for _, m := range members {
				for _, e := range g.in[m] {
					src := e.From
					if keep(src) {
						if !seen[src] {
							seen[src] = true
							rs = append(rs, src)
						}
						continue
					}
					if comp[src] == id {
						continue // intra-component edge
					}
					// Tarjan guarantees src's component already popped:
					// every vertex reachable from this component is in it
					// or in an earlier-completed component.
					for _, r := range compRoots[comp[src]] {
						if !seen[r] {
							seen[r] = true
							rs = append(rs, r)
						}
					}
				}
			}
			compRoots[id] = rs
		}
	}
	out := make(map[*Node][]*Node, len(comp))
	for n, id := range comp {
		out[n] = compRoots[id]
	}
	return out
}

// AccessKind says whether an event reads or writes its variable.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "Read"
	}
	return "Write"
}

// Event is one entry of the execution-time-ordered R/W dependency sequence
// (Fig. 5(e)).
type Event struct {
	Node *Node
	Kind AccessKind
	Time int64
}

// Events converts the graph into the time-ordered Read/Write sequence: an
// edge u→v at time t contributes u-Read@t and v-Write@t; a write mark
// contributes v-Write@t. Events are sorted by time with reads before
// writes at equal times (the sources are read before the destination is
// stored).
func (g *Graph) Events() []Event {
	var evs []Event
	for _, es := range g.out {
		for _, e := range es {
			evs = append(evs, Event{Node: e.From, Kind: Read, Time: e.Time})
		}
	}
	for n := range g.in {
		for _, e := range g.in[n] {
			evs = append(evs, Event{Node: e.To, Kind: Write, Time: e.Time})
		}
	}
	for _, w := range g.writes {
		evs = append(evs, Event{Node: w.node, Kind: Write, Time: w.time})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind == Read
		}
		return evs[i].Node.ID < evs[j].Node.ID
	})
	// Deduplicate identical (node, kind, time) entries: multiple parents
	// of one store produce one Write each.
	out := evs[:0]
	for i, e := range evs {
		if i > 0 {
			p := out[len(out)-1]
			if p.Node == e.Node && p.Kind == e.Kind && p.Time == e.Time {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// DOT renders the graph in Graphviz format (used by examples and docs).
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	for _, n := range g.nodes {
		shape := "ellipse"
		switch n.Kind {
		case KindRegister:
			shape = "circle"
		case KindLocal:
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", n.ID, n.Name, shape)
	}
	var edges []Edge
	for _, es := range g.out {
		edges = append(edges, es...)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"t%d\"];\n", e.From.ID, e.To.ID, e.Time)
	}
	b.WriteString("}\n")
	return b.String()
}
