// Package cfg implements control-flow analyses over the IR: predecessor /
// successor maps, reverse postorder, dominator trees, natural-loop
// detection with nesting, and induction-variable identification.
//
// This is the reproduction's stand-in for the paper's "llvm-pass-loop API"
// (§IV-C "Index"): AutoCheck uses it to find the outermost loop covering
// the main computation loop range and to identify its induction variable,
// which is always checkpointed.
package cfg

import (
	"sort"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// Graph holds the control-flow structure of one function.
type Graph struct {
	Fn     *ir.Function
	Blocks []*ir.Block       // reverse postorder
	Index  map[*ir.Block]int // block -> RPO index
	Preds  map[*ir.Block][]*ir.Block
	Succs  map[*ir.Block][]*ir.Block
	idom   map[*ir.Block]*ir.Block
}

// New computes the CFG and dominator tree of f. Unreachable blocks are
// excluded from Blocks (they cannot execute, so they never appear in a
// dynamic trace either).
func New(f *ir.Function) *Graph {
	g := &Graph{
		Fn:    f,
		Index: make(map[*ir.Block]int),
		Preds: make(map[*ir.Block][]*ir.Block),
		Succs: make(map[*ir.Block][]*ir.Block),
		idom:  make(map[*ir.Block]*ir.Block),
	}
	if f.Entry() == nil {
		return g
	}
	// Depth-first postorder, then reverse.
	seen := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			g.Succs[b] = append(g.Succs[b], s)
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i := len(post) - 1; i >= 0; i-- {
		g.Index[post[i]] = len(g.Blocks)
		g.Blocks = append(g.Blocks, post[i])
	}
	for _, b := range g.Blocks {
		for _, s := range g.Succs[b] {
			g.Preds[s] = append(g.Preds[s], b)
		}
	}
	g.computeDominators()
	return g
}

// computeDominators uses the Cooper-Harvey-Kennedy iterative algorithm on
// reverse postorder.
func (g *Graph) computeDominators() {
	if len(g.Blocks) == 0 {
		return
	}
	entry := g.Blocks[0]
	g.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.Blocks[1:] {
			var newIdom *ir.Block
			for _, p := range g.Preds[b] {
				if g.idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom != nil && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (g *Graph) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for g.Index[a] > g.Index[b] {
			a = g.idom[a]
		}
		for g.Index[b] > g.Index[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (g *Graph) Dominates(a, b *ir.Block) bool {
	for {
		if a == b {
			return true
		}
		next := g.idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is a natural loop.
type Loop struct {
	Header  *ir.Block
	Blocks  map[*ir.Block]bool
	Latches []*ir.Block // blocks with a back edge to Header
	Parent  *Loop
	Childs  []*Loop
	Depth   int // 1 = outermost
}

// Contains reports whether the loop body includes b.
func (l *Loop) Contains(b *ir.Block) bool { return l.Blocks[b] }

// LineRange returns the minimum and maximum source line of instructions in
// the loop body (ignoring synthesized line -1 instructions).
func (l *Loop) LineRange() (lo, hi int) {
	lo, hi = -1, -1
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Line < 0 {
				continue
			}
			if lo < 0 || in.Line < lo {
				lo = in.Line
			}
			if in.Line > hi {
				hi = in.Line
			}
		}
	}
	return lo, hi
}

// Loops finds all natural loops of g, with nesting links. The result is
// sorted outermost-first (by depth, then header RPO index), which is a
// deterministic order for tests and reports.
func (g *Graph) Loops() []*Loop {
	byHeader := make(map[*ir.Block]*Loop)
	var loops []*Loop
	for _, n := range g.Blocks {
		for _, h := range g.Succs[n] {
			if !g.Dominates(h, n) {
				continue // not a back edge
			}
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}}
				byHeader[h] = l
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, n)
			// Collect the loop body: all nodes that reach n without
			// passing through h.
			stack := []*ir.Block{n}
			for len(stack) > 0 {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[m] {
					continue
				}
				l.Blocks[m] = true
				for _, p := range g.Preds[m] {
					if p != h {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Nesting: loop A is a child of the smallest loop B != A whose body
	// contains A's header.
	for _, a := range loops {
		var best *Loop
		for _, b := range loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			if best == nil || len(b.Blocks) < len(best.Blocks) {
				best = b
			}
		}
		if best != nil {
			a.Parent = best
			best.Childs = append(best.Childs, a)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth < loops[j].Depth
		}
		return g.Index[loops[i].Header] < g.Index[loops[j].Header]
	})
	return loops
}

// OutermostLoopInRange returns the outermost loop whose body's source-line
// range lies within [startLine, endLine], preferring the largest body.
// This is how AutoCheck maps the user-provided MCLR (main computation loop
// range) to an IR loop.
func (g *Graph) OutermostLoopInRange(startLine, endLine int) *Loop {
	var best *Loop
	for _, l := range g.Loops() {
		lo, hi := l.LineRange()
		if lo < 0 || lo < startLine || hi > endLine {
			continue
		}
		if l.Parent != nil {
			plo, phi := l.Parent.LineRange()
			if plo >= startLine && phi <= endLine {
				continue // parent also fits; prefer the parent
			}
		}
		if best == nil || len(l.Blocks) > len(best.Blocks) {
			best = l
		}
	}
	return best
}

// InductionVariable identifies the canonical induction variable of a loop:
// a named alloca v such that (1) the loop header's exit condition compares
// a load of v, and (2) some block of the loop stores v := (load v) ± c.
// It returns the defining alloca instruction, or nil.
func (g *Graph) InductionVariable(l *Loop) *ir.Instr {
	if l == nil {
		return nil
	}
	// Candidate slots loaded in the header and feeding the header compare.
	cands := make(map[*ir.Instr]bool)
	for _, in := range l.Header.Instrs {
		if in.Op != trace.OpICmp && in.Op != trace.OpFCmp {
			continue
		}
		for _, a := range in.Args {
			ld, ok := a.(*ir.Instr)
			if !ok || ld.Op != trace.OpLoad {
				continue
			}
			if slot := allocaOf(ld.Args[0]); slot != nil {
				cands[slot] = true
			}
		}
	}
	// A candidate must be updated as v = v ± c somewhere in the loop.
	var found *ir.Instr
	for b := range l.Blocks {
		for _, in := range b.Instrs {
			if in.Op != trace.OpStore {
				continue
			}
			slot := allocaOf(in.Args[1])
			if slot == nil || !cands[slot] {
				continue
			}
			add, ok := in.Args[0].(*ir.Instr)
			if !ok || (add.Op != trace.OpAdd && add.Op != trace.OpSub) {
				continue
			}
			if loadsSlot(add.Args[0], slot) || loadsSlot(add.Args[1], slot) {
				if found == nil || g.Index[b] < g.Index[found.Parent] {
					found = slot
				}
			}
		}
	}
	return found
}

// allocaOf unwraps a pointer value to its defining named alloca, if any.
func allocaOf(v ir.Value) *ir.Instr {
	in, ok := v.(*ir.Instr)
	if !ok {
		return nil
	}
	switch in.Op {
	case trace.OpAlloca:
		if in.Name != "" {
			return in
		}
		return nil
	case trace.OpBitCast, trace.OpGetElementPtr:
		return allocaOf(in.Args[0])
	}
	return nil
}

func loadsSlot(v ir.Value, slot *ir.Instr) bool {
	ld, ok := v.(*ir.Instr)
	return ok && ld.Op == trace.OpLoad && allocaOf(ld.Args[0]) == slot
}
