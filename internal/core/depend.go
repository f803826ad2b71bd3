package core

import (
	"fmt"
	"strconv"

	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// This file holds the dependency-tracking steps of the fused pass
// (module 2, §IV-B): maintain the reg-var and reg-reg maps on-the-fly and
// stream Read/Write information into per-variable summaries. With
// Options.BuildDDG they additionally materialize the complete DDG
// (Fig. 5(c)): MLI vertices, local-variable vertices, and one vertex per
// dynamic register instance, with an edge flush at every Store.
// analyzer.fusedStep in engine.go calls them by the record's step; inside
// a fork they log what the fork's rollback needs.

// The reg-var map (Table I) is each row's v, the reg-reg map its srcs: a
// Load points its result at the variable it read, a GEP or BitCast at the
// variable it refers to (mapRef), a form-2 Call its parameters at their
// arguments' (correlate), and every other value-producing record links
// its register inputs to its result (linkSources). The maps are kept over
// the whole trace, whatever the record's region, because region C reads
// and induction detection also consult them.

// linkSources makes the record's result register, if any, computed from
// its register operands. The row shares the shape's sources, which never
// change, by reference: a register rewritten every iteration, or reloaded
// between rewrites, costs no allocation, and no row writes into them.
func linkSources(sh *shape) {
	if sh.res != nil {
		sh.res.v, sh.res.srcs = nil, sh.srcs
	}
}

// mapRef points a GEP's or BitCast's result register at the variable its
// result address falls in (exact) or, failing that, at its base
// register's (the paper's approach). The result is a computed reference,
// not an access: it grows no footprint, so reported footprints stay what
// Loads and Stores actually touch, identically in every adapter.
func (a *analyzer) mapRef(r *trace.Record, sh *shape) {
	var v *VarInfo
	if r.Result.Value.Kind == trace.KindPtr {
		addr := r.Result.Value.Addr()
		if v = a.vt.at(&sh.ref, addr); v == nil {
			sh.ref = a.vt.lookup(addr, false)
			v = sh.ref.v
		}
	}
	if v == nil && sh.val >= 0 {
		v = sh.rows[sh.val].v
	}
	sh.res.v, sh.res.srcs = v, nil
}

// correlate is form 2 of §IV-B's Calls (a Call followed by its function
// body; form 1, a lone Call with a result such as pow, is arithmetic): it
// correlates each argument with the callee's parameter. The argument
// register resolves through the caller's reg-var map, and the triplet
// (argument variable, argument register, parameter) makes the callee's
// parameter name resolve to the caller's variable.
func (a *analyzer) correlate(r *trace.Record, sh *shape) {
	for _, p := range sh.params {
		var v *VarInfo
		if p.arg >= 0 {
			arg := &r.Ops[p.arg]
			if arg.IsReg {
				v = sh.rows[p.arg].v
			}
			if v == nil && arg.Value.Kind == trace.KindPtr {
				// Pointer argument: resolve the pointed-to variable directly
				// (a reference, not an access — no footprint growth).
				v = a.vt.resolveRef(arg.Value.Addr())
			}
		}
		e := sh.rows[p.at]
		e.v = v
		if a.graph != nil {
			e.node = nil
			if v != nil {
				e.node = a.nodeOf(v)
				// Region C asks for the vertex too: a rollback creates it.
				if u := a.touch(v.slot); u != nil && !u.called {
					u.called = true
					a.calls = append(a.calls, v)
				}
			}
		}
	}
}

// derivesFrom reports whether e's register was computed from the variable
// in slot: it chases the reg-reg rows to the variables their reg-var
// entries name (bounded depth; expression trees are shallow).
func derivesFrom(e *regEntry, slot int, depth int) bool {
	if depth > 64 {
		return false
	}
	if e.v != nil {
		return e.v.slot == slot
	}
	for _, src := range e.srcs {
		if derivesFrom(src, slot, depth+1) {
			return true
		}
	}
	return false
}

// loopLoad streams a region-B read of v at addr into v's summary and,
// with BuildDDG, adds the Load's register vertex, if it has a result.
// Inside a fork it also notes region C's signal, the variable's first
// read after the loop, for the rollback to apply.
func (a *analyzer) loopLoad(r *trace.Record, sh *shape, addr uint64, v *VarInfo) {
	s := a.summary(v)
	if u := a.touch(v.slot); u != nil && u.after == nil {
		u.after, u.afterDyn = v, r.DynID
	}
	if !s.haveFirst {
		s.haveFirst = true
		s.firstIsRead = true
		s.firstDyn = r.DynID
	}
	s.reads++
	// Once a read is uncovered the written set is never read again: a
	// fork that set the flag is rolled back only at the stream's end.
	if !s.uncoveredRead && !s.written[addr] {
		s.uncoveredDyn = r.DynID
		s.uncoveredRead = true
	}
	if a.graph != nil && sh.res != nil {
		n := a.newRegInstance(r)
		a.graph.AddEdge(a.nodeOf(v), n, r.DynID)
		sh.res.node = n
	}
}

// loopStore streams a region-B write of v at addr into v's summary and,
// with BuildDDG, flushes the edge from the stored register's vertex.
func (a *analyzer) loopStore(r *trace.Record, sh *shape, addr uint64, v *VarInfo) {
	s := a.summary(v)
	if !s.haveFirst {
		s.haveFirst = true
		s.firstDyn = r.DynID
	}
	s.writes++
	if !s.uncoveredRead {
		s.written[addr] = true
	}
	// Induction signal: a depth-0 store to a loop-function local whose
	// sources include the variable itself.
	if sh.loopFn && v.Fn == a.spec.Function && sh.val >= 0 && derivesFrom(sh.rows[sh.val], v.slot, 0) {
		s.selfUpdate++
	}
	if a.graph != nil {
		dst := a.nodeOf(v)
		if sh.val >= 0 && sh.rows[sh.val].node != nil {
			a.graph.AddEdge(sh.rows[sh.val].node, dst, r.DynID)
			return
		}
		a.graph.MarkWrite(dst, r.DynID)
	}
}

// ddgArith adds the register-to-register DDG vertices and edges for a
// value-producing record (arithmetic, casts, comparisons, Calls).
func (a *analyzer) ddgArith(r *trace.Record, sh *shape) {
	if a.graph == nil || sh.res == nil {
		return
	}
	n := a.newRegInstance(r)
	for _, e := range sh.srcs {
		if e.node != nil {
			a.graph.AddEdge(e.node, n, r.DynID)
		}
	}
	sh.res.node = n
}

// --- DDG vertex bookkeeping ---

// nodeOf returns v's vertex. MLI membership is still open while the pass
// runs, so every variable vertex starts as KindLocal; analyzer.finish
// stamps KindMLI on the members of the final MLI set.
func (a *analyzer) nodeOf(v *VarInfo) *ddg.Node {
	st := &a.vars[v.slot]
	if st.node != nil {
		return st.node
	}
	a.touch(v.slot)
	name := v.Name
	if a.graph.Lookup(name) != nil {
		name = fmt.Sprintf("%s@%x", v.Name, v.Base)
	}
	st.node = a.graph.Node(name, ddg.KindLocal)
	return st.node
}

func (a *analyzer) newRegInstance(r *trace.Record) *ddg.Node {
	name := r.Func + ":" + r.Result.Name + "#" + strconv.FormatInt(r.DynID, 10)
	return a.graph.Node(name, ddg.KindRegister)
}
