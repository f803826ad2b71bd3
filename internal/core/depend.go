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
// analyzer.fusedStep in engine.go drives these steps; inside a fork they
// log what the fork's rollback needs.

// updateMaps maintains the reg-var map (Load/Store/GEP/BitCast/Alloca and
// Call parameter correlation, Table I) and the reg-reg map (arithmetic and
// the single-Call form): each case finds its result register's row once
// and rewrites it in place. It runs over the whole trace because region C
// reads and induction detection also consult the maps, and it does the
// same whatever the record's region. acc is a Load's resolved access, and
// sh the record's shape.
func (a *analyzer) updateMaps(r *trace.Record, sh *shape, acc *access) {
	switch r.Opcode {
	case trace.OpLoad:
		if !acc.ok || r.Result == nil {
			return
		}
		sh.res.v, sh.res.srcs = acc.v, nil
	case trace.OpGetElementPtr, trace.OpBitCast:
		if r.Result == nil {
			return
		}
		// Resolve by the result address first (exact), then through the
		// base operand's name chain (the paper's approach). The result is
		// a computed reference, not an access: resolveRef keeps reported
		// footprints to what Loads and Stores actually touch, identically
		// in every adapter.
		var v *VarInfo
		if r.Result.Value.Kind == trace.KindPtr {
			addr := r.Result.Value.Addr()
			if v = a.vt.at(&sh.ref, addr); v == nil {
				sh.ref = a.vt.lookup(addr, false)
				v = sh.ref.v
			}
		}
		if v == nil {
			if i := operandPos(r, 1); i >= 0 && r.Ops[i].IsReg {
				v = sh.rows[i].v
			}
		}
		sh.res.v, sh.res.srcs = v, nil
	case trace.OpCall:
		a.updateCallMaps(r, sh)
	default:
		if r.Result == nil {
			return
		}
		// Arithmetic, comparisons, casts, selects: link input registers to
		// the output register (reg-reg map).
		linkSources(sh)
	}
}

// linkSources makes the record's result register computed from its
// register operands. The row shares the shape's sources, which never
// change, by reference: a register rewritten every iteration, or reloaded
// between rewrites, costs no allocation, and no row writes into them.
func linkSources(sh *shape) {
	sh.res.v, sh.res.srcs = nil, sh.srcs
}

// updateCallMaps handles both Call forms of §IV-B. Form 1 (a lone Call
// with a result, e.g. pow) behaves like arithmetic: inputs link to the
// result in the reg-reg map. Form 2 (a Call followed by its function body)
// correlates each argument with the callee's parameter: the argument
// register resolves through the caller's reg-var map, and the triplet
// (argument variable, argument register, parameter) makes the callee's
// parameter name resolve to the caller's variable.
func (a *analyzer) updateCallMaps(r *trace.Record, sh *shape) {
	hasParams := false
	for i := range r.Ops {
		if r.Ops[i].Index < 0 {
			hasParams = true
			break
		}
	}
	if !hasParams {
		// Form 1: treat as arithmetic.
		if r.Result != nil {
			linkSources(sh)
		}
		return
	}
	// Form 2: parameter correlation.
	for i := range r.Ops {
		p := &r.Ops[i]
		if p.Index >= 0 {
			continue
		}
		var v *VarInfo
		if j := operandPos(r, -p.Index); j >= 0 {
			arg := &r.Ops[j]
			if arg.IsReg {
				v = sh.rows[j].v
			}
			if v == nil && arg.Value.Kind == trace.KindPtr {
				// Pointer argument: resolve the pointed-to variable directly
				// (a reference, not an access — no footprint growth).
				v = a.vt.resolveRef(arg.Value.Addr())
			}
		}
		e := sh.rows[i]
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

// processLoopRecord streams region-B Read/Write information into the
// per-variable summaries and, with BuildDDG, grows the complete DDG.
// Inside a fork a Load also notes region C's signal, the variable's first
// read after the loop, for the rollback to apply. acc is a Load's or
// Store's resolved access, and sh the record's shape.
func (a *analyzer) processLoopRecord(r *trace.Record, sh *shape, acc *access) {
	addr, v := acc.addr, acc.v
	switch r.Opcode {
	case trace.OpLoad:
		if v == nil {
			return
		}
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
		if a.graph != nil {
			n := a.newRegInstance(r)
			a.graph.AddEdge(a.nodeOf(v), n, r.DynID)
			sh.res.node = n
		}
	case trace.OpStore:
		if v == nil {
			return
		}
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
		val := operandPos(r, 1)
		if val >= 0 && !r.Ops[val].IsReg {
			val = -1
		}
		if sh.loopFn && v.Fn == a.spec.Function {
			if val >= 0 && derivesFrom(sh.rows[val], v.slot, 0) {
				s.selfUpdate++
			}
		}
		if a.graph != nil {
			dst := a.nodeOf(v)
			if val >= 0 && sh.rows[val].node != nil {
				a.graph.AddEdge(sh.rows[val].node, dst, r.DynID)
				return
			}
			a.graph.MarkWrite(dst, r.DynID)
		}
	case trace.OpICmp, trace.OpFCmp:
		// Induction signal: comparisons at depth 0 over loop-function
		// locals.
		if !sh.loopFn {
			break
		}
		for i := range r.Ops {
			op := &r.Ops[i]
			if op.Index <= 0 || !op.IsReg {
				continue
			}
			if e := sh.rows[i]; e.v != nil && e.v.Fn == a.spec.Function {
				a.summary(e.v).cmpUses++
			}
		}
		a.ddgArith(r, sh)
	default:
		if r.Result != nil {
			a.ddgArith(r, sh)
		}
	}
}

// ddgArith adds the register-to-register DDG vertices and edges for a
// value-producing record (arithmetic, casts, comparisons, form-1 calls).
func (a *analyzer) ddgArith(r *trace.Record, sh *shape) {
	if a.graph == nil || r.Result == nil {
		return
	}
	switch r.Opcode {
	case trace.OpAlloca, trace.OpGetElementPtr, trace.OpBitCast:
		return // addressing, not data flow
	}
	n := a.newRegInstance(r)
	for i := range r.Ops {
		op := &r.Ops[i]
		if op.Index > 0 && op.IsReg {
			if e := sh.rows[i]; e.node != nil {
				a.graph.AddEdge(e.node, n, r.DynID)
			}
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
