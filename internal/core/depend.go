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
// analyzer.fusedStep in engine.go drives these steps.

// updateMaps maintains the reg-var map (Load/Store/GEP/BitCast/Alloca and
// Call parameter correlation, Table I) and the reg-reg map (arithmetic and
// the single-Call form). It runs over the whole trace because region C
// reads and induction detection also consult the maps.
func (a *analyzer) updateMaps(r *trace.Record) {
	fn := r.Func
	switch r.Opcode {
	case trace.OpLoad:
		addr, ok := accessAddr(r)
		if !ok || r.Result == nil {
			return
		}
		v := a.vt.resolve(addr)
		key := regKey{fn, r.Result.Name}
		if v != nil {
			a.rv[key] = v
		} else {
			delete(a.rv, key)
		}
		delete(a.rr, key)
	case trace.OpGetElementPtr, trace.OpBitCast:
		if r.Result == nil {
			return
		}
		key := regKey{fn, r.Result.Name}
		// Resolve by the result address first (exact), then through the
		// base operand's name chain (the paper's approach). The result is
		// a computed reference, not an access: resolveRef keeps reported
		// footprints to what Loads and Stores actually touch, identically
		// in every adapter.
		var v *VarInfo
		if r.Result.Value.Kind == trace.KindPtr {
			v = a.vt.resolveRef(r.Result.Value.Addr())
		}
		if v == nil {
			if base := r.Operand(1); base != nil && base.IsReg {
				v = a.rv[regKey{fn, base.Name}]
			}
		}
		if v != nil {
			a.rv[key] = v
		} else {
			delete(a.rv, key)
		}
		delete(a.rr, key)
	case trace.OpCall:
		a.updateCallMaps(r)
	default:
		if r.Result == nil {
			return
		}
		// Arithmetic, comparisons, casts, selects: link input registers to
		// the output register (reg-reg map). The key's previous source
		// slice is truncated and refilled in place — nothing else retains
		// it — so a register rewritten every iteration stops costing one
		// slice allocation per record.
		key := regKey{fn, r.Result.Name}
		srcs := a.rr[key][:0]
		for i := range r.Ops {
			op := &r.Ops[i]
			if op.Index > 0 && op.IsReg {
				srcs = append(srcs, regKey{fn, op.Name})
			}
		}
		a.rr[key] = srcs
		delete(a.rv, key)
	}
}

// updateCallMaps handles both Call forms of §IV-B. Form 1 (a lone Call
// with a result, e.g. pow) behaves like arithmetic: inputs link to the
// result in the reg-reg map. Form 2 (a Call followed by its function body)
// correlates each argument with the callee's parameter: the argument
// register resolves through the caller's reg-var map, and the triplet
// (argument variable, argument register, parameter) makes the callee's
// parameter name resolve to the caller's variable.
func (a *analyzer) updateCallMaps(r *trace.Record) {
	fn := r.Func
	callee := ""
	if op := r.Operand(0); op != nil {
		callee = op.Name
	}
	hasParams := false
	for i := range r.Ops {
		if r.Ops[i].Index < 0 {
			hasParams = true
			break
		}
	}
	if !hasParams {
		// Form 1: treat as arithmetic (source slice reused like updateMaps).
		if r.Result != nil {
			key := regKey{fn, r.Result.Name}
			srcs := a.rr[key][:0]
			for i := range r.Ops {
				op := &r.Ops[i]
				if op.Index > 0 && op.IsReg {
					srcs = append(srcs, regKey{fn, op.Name})
				}
			}
			a.rr[key] = srcs
			delete(a.rv, key)
		}
		return
	}
	// Form 2: parameter correlation.
	for i := range r.Ops {
		p := &r.Ops[i]
		if p.Index >= 0 {
			continue
		}
		argIdx := -p.Index
		arg := r.Operand(argIdx)
		pkey := regKey{callee, p.Name}
		var v *VarInfo
		if arg != nil && arg.IsReg {
			v = a.rv[regKey{fn, arg.Name}]
		}
		if v == nil && arg != nil && arg.Value.Kind == trace.KindPtr {
			// Pointer argument: resolve the pointed-to variable directly
			// (a reference, not an access — no footprint growth).
			v = a.vt.resolveRef(arg.Value.Addr())
		}
		if v != nil {
			a.rv[pkey] = v
			if a.graph != nil {
				a.setRegNode(pkey, a.nodeOf(v))
			}
		} else {
			delete(a.rv, pkey)
			if a.graph != nil {
				delete(a.regNode, pkey)
			}
		}
	}
}

// resolveRegVars chases a register through the reg-reg map to the set of
// variables it was computed from (bounded depth; expression trees are
// shallow).
func (a *analyzer) resolveRegVars(key regKey, depth int, out map[VarID]*VarInfo) {
	if depth > 64 {
		return
	}
	if v, ok := a.rv[key]; ok {
		out[v.ID()] = v
		return
	}
	for _, src := range a.rr[key] {
		a.resolveRegVars(src, depth+1, out)
	}
}

// processLoopRecord streams region-B Read/Write information into the
// per-variable summaries and, with BuildDDG, grows the complete DDG.
func (a *analyzer) processLoopRecord(r *trace.Record) {
	switch r.Opcode {
	case trace.OpLoad:
		addr, ok := accessAddr(r)
		if !ok {
			return
		}
		v := a.vt.resolve(addr)
		if v == nil {
			return
		}
		s := a.summary(v)
		if !s.haveFirst {
			s.haveFirst = true
			s.firstIsRead = true
			s.firstDyn = r.DynID
		}
		s.reads++
		if !s.written[addr] {
			if !s.uncoveredRead {
				s.uncoveredDyn = r.DynID
			}
			s.uncoveredRead = true
		}
		if a.graph != nil {
			n := a.newRegInstance(r)
			a.graph.AddEdge(a.nodeOf(v), n, r.DynID)
			a.setRegNode(regKey{r.Func, r.Result.Name}, n)
		}
	case trace.OpStore:
		addr, ok := accessAddr(r)
		if !ok {
			return
		}
		v := a.vt.resolve(addr)
		if v == nil {
			return
		}
		s := a.summary(v)
		if !s.haveFirst {
			s.haveFirst = true
			s.firstDyn = r.DynID
		}
		s.writes++
		s.written[addr] = true
		// Induction signal: a depth-0 store to a loop-function local whose
		// sources include the variable itself. The resolution set is a
		// reusable scratch map — this fires for every such store, and a
		// fresh map per record was a top allocation site.
		if r.Func == a.spec.Function && v.Fn == a.spec.Function {
			if val := r.Operand(1); val != nil && val.IsReg {
				if a.ivSrcs == nil {
					a.ivSrcs = make(map[VarID]*VarInfo, 8)
				} else {
					clear(a.ivSrcs)
				}
				a.resolveRegVars(regKey{r.Func, val.Name}, 0, a.ivSrcs)
				if _, self := a.ivSrcs[v.ID()]; self {
					a.summary(v).selfUpdate++
				}
			}
		}
		if a.graph != nil {
			dst := a.nodeOf(v)
			val := r.Operand(1)
			if val != nil && val.IsReg {
				if src, ok := a.regNode[regKey{r.Func, val.Name}]; ok {
					a.graph.AddEdge(src, dst, r.DynID)
					return
				}
			}
			a.graph.MarkWrite(dst, r.DynID)
		}
	case trace.OpICmp, trace.OpFCmp:
		// Induction signal: comparisons at depth 0 over loop-function
		// locals.
		if r.Func != a.spec.Function {
			break
		}
		for i := range r.Ops {
			op := &r.Ops[i]
			if op.Index <= 0 || !op.IsReg {
				continue
			}
			if v, ok := a.rv[regKey{r.Func, op.Name}]; ok && v.Fn == a.spec.Function {
				a.summary(v).cmpUses++
			}
		}
		a.ddgArith(r)
	default:
		if r.Result != nil {
			a.ddgArith(r)
		}
	}
}

// ddgArith adds the register-to-register DDG vertices and edges for a
// value-producing record (arithmetic, casts, comparisons, form-1 calls).
func (a *analyzer) ddgArith(r *trace.Record) {
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
			if src, ok := a.regNode[regKey{r.Func, op.Name}]; ok {
				a.graph.AddEdge(src, n, r.DynID)
			}
		}
	}
	a.setRegNode(regKey{r.Func, r.Result.Name}, n)
}

// processAfterLoop records region-C reads (the Outcome signal, §IV-C).
func (a *analyzer) processAfterLoop(r *trace.Record) {
	if r.Opcode != trace.OpLoad {
		return
	}
	addr, ok := accessAddr(r)
	if !ok {
		return
	}
	if v := a.vt.resolve(addr); v != nil {
		s := a.summary(v)
		if !s.readAfterLoop {
			s.afterDyn = r.DynID
		}
		s.readAfterLoop = true
	}
}

// --- DDG vertex bookkeeping ---

// nodeOf returns v's vertex. MLI membership is still open while the pass
// runs, so every variable vertex starts as KindLocal; analyzer.finish
// stamps KindMLI on the members of the final MLI set.
func (a *analyzer) nodeOf(v *VarInfo) *ddg.Node {
	if n, ok := a.varNodes[v.ID()]; ok {
		return n
	}
	name := v.Name
	if a.graph.Lookup(name) != nil {
		name = fmt.Sprintf("%s@%x", v.Name, v.Base)
	}
	n := a.graph.Node(name, ddg.KindLocal)
	a.varNodes[v.ID()] = n
	return n
}

func (a *analyzer) newRegInstance(r *trace.Record) *ddg.Node {
	name := r.Func + ":" + r.Result.Name + "#" + strconv.FormatInt(r.DynID, 10)
	return a.graph.Node(name, ddg.KindRegister)
}

func (a *analyzer) setRegNode(key regKey, n *ddg.Node) {
	a.regNode[key] = n
}
