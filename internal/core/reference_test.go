package core

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"autocheck/internal/cfg"
	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// The reference pass: the fused pass as it was when module 2 kept six
// string-keyed maps — rv, rr and regNode keyed by regKey, mliA, mli and
// sums keyed by VarID — with its variable table, kept as the oracle the
// register-row, variable-slot pass is held to. The bodies are the old
// ones; only the receiver and table types are renamed. It shares with the
// production pass what that change left alone: the summary type, the
// record helper isNumeric and the §IV-C rules
// (classifySummary, ruleText, critical). Its drivers keep the two region
// partitioners the engine's fork replaced: the offline one, which knows
// the loop's extent before the pass starts, and the online one, which
// parks every record it cannot place yet until the loop resumes or the
// stream ends.

// refVarTable is the address table without slots.
type refVarTable struct {
	locals  []span // sorted by lo, non-overlapping
	globals []span // sorted by lo; hi grows with observed footprint
	gByName map[string]*VarInfo
	frozen  bool // stop growing global footprints (see freeze)
}

func (t *refVarTable) freeze() { t.frozen = true }

func newRefVarTable() *refVarTable {
	return &refVarTable{gByName: make(map[string]*VarInfo)}
}

func (t *refVarTable) reset() {
	t.locals = t.locals[:0]
	t.globals = t.globals[:0]
	clear(t.gByName)
	t.frozen = false
}

func (t *refVarTable) addAlloca(name, fn string, base uint64, size int64, dyn int64) *VarInfo {
	if size <= 0 {
		size = 8
	}
	v := &VarInfo{Name: name, Fn: fn, Base: base, SizeBytes: size, FirstDyn: dyn, FirstLine: -1}
	lo, hi := base, base+uint64(size)
	// Find the range of spans overlapping [lo, hi).
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > lo })
	j := i
	for j < len(t.locals) && t.locals[j].lo < hi {
		j++
	}
	repl := []span{{lo: lo, hi: hi, v: v}}
	t.locals = append(t.locals[:i], append(repl, t.locals[j:]...)...)
	return v
}

func (t *refVarTable) noteGlobal(name string, base uint64, dyn int64, line int) *VarInfo {
	if v, ok := t.gByName[name]; ok {
		return v
	}
	v := &VarInfo{Name: name, Fn: "", Base: base, SizeBytes: 8, Global: true, FirstDyn: dyn, FirstLine: line}
	t.gByName[name] = v
	sp := span{lo: base, hi: base + 8, v: v}
	i := sort.Search(len(t.globals), func(i int) bool { return t.globals[i].lo >= base })
	if i > 0 && t.globals[i-1].hi > base {
		prev := &t.globals[i-1]
		prev.hi = base
		prev.v.SizeBytes = int64(prev.hi - prev.lo)
	}
	t.globals = append(t.globals[:i], append([]span{sp}, t.globals[i:]...)...)
	return v
}

func (t *refVarTable) resolveLocal(addr uint64) *VarInfo {
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > addr })
	if i < len(t.locals) && t.locals[i].lo <= addr {
		return t.locals[i].v
	}
	return nil
}

func (t *refVarTable) resolve(addr uint64) *VarInfo {
	return t.lookup(addr, true)
}

func (t *refVarTable) resolveRef(addr uint64) *VarInfo {
	return t.lookup(addr, false)
}

func (t *refVarTable) lookup(addr uint64, access bool) *VarInfo {
	// Locals: exact span containment.
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > addr })
	if i < len(t.locals) && t.locals[i].lo <= addr {
		return t.locals[i].v
	}
	// Globals: greatest base <= addr, bounded by the next global's base.
	j := sort.Search(len(t.globals), func(i int) bool { return t.globals[i].lo > addr })
	if j == 0 {
		return nil
	}
	g := &t.globals[j-1]
	if j < len(t.globals) && addr >= t.globals[j].lo {
		return nil // inside the next global's territory (defensive; unreachable)
	}
	if access && addr >= g.hi && !t.frozen {
		g.hi = addr + 8
		if g.v.SizeBytes < int64(g.hi-g.lo) {
			g.v.SizeBytes = int64(g.hi - g.lo)
		}
	}
	return g.v
}

func (t *refVarTable) lookupLocal(fn, name string) *VarInfo {
	var best *VarInfo
	for _, sp := range t.locals {
		if sp.v.Fn == fn && sp.v.Name == name {
			if best == nil || sp.v.FirstDyn > best.FirstDyn {
				best = sp.v
			}
		}
	}
	return best
}

type refAnalyzer struct {
	spec LoopSpec
	opts Options

	vt   *refVarTable
	mliA map[VarID]*VarInfo
	mli  map[VarID]*VarInfo // matched MLI set

	rv       map[regKey]*VarInfo // reg-var map (paper Fig. 5(a))
	rr       map[regKey][]regKey // reg-reg map (paper Fig. 5(b))
	sums     map[VarID]*varSummary
	graph    *ddg.Graph
	regNode  map[regKey]*ddg.Node
	varNodes map[VarID]*ddg.Node
	// ivSrcs is the reusable scratch map for the per-store induction
	// check (resolveRegVars output); cleared before each use.
	ivSrcs map[VarID]*VarInfo
}

func newRefAnalyzer(spec LoopSpec, opts Options) *refAnalyzer {
	a := &refAnalyzer{}
	a.reset(spec, opts)
	return a
}

// reset reconfigures the analyzer for a fresh trace, keeping its
// allocated map and table storage. This is what makes one scratch bundle
// serve many analyses (AnalyzeMany's per-worker reuse): a reset analyzer
// behaves exactly like a new one, and the VarInfo/summary objects a
// previous Result retained are never mutated afterwards.
func (a *refAnalyzer) reset(spec LoopSpec, opts Options) {
	a.spec = spec
	a.opts = opts
	if a.vt == nil {
		a.vt = newRefVarTable()
		a.mliA = make(map[VarID]*VarInfo)
		a.mli = make(map[VarID]*VarInfo)
		a.rv = make(map[regKey]*VarInfo)
		a.rr = make(map[regKey][]regKey)
		a.sums = make(map[VarID]*varSummary)
	} else {
		a.vt.reset()
		clear(a.mliA)
		clear(a.mli)
		clear(a.rv)
		clear(a.rr)
		clear(a.sums)
	}
	a.graph, a.regNode, a.varNodes = nil, nil, nil
	if opts.BuildDDG {
		// The graphs are handed to the Result, so a reset builds fresh ones.
		a.graph = ddg.New()
		a.regNode = make(map[regKey]*ddg.Node)
		a.varNodes = make(map[VarID]*ddg.Node)
	}
	clear(a.ivSrcs)
}

// accessOperand returns a Load's or Store's pointer operand, or a GEP's
// base, or nil.
func accessOperand(r *trace.Record) *trace.Operand {
	if r.Opcode == trace.OpStore {
		return r.Operand(2)
	}
	return r.Operand(1)
}

// accessAddr returns the memory address a Load or Store touches, or 0.
// The fused pass finds it in access, from the record's shape.
func accessAddr(r *trace.Record) (uint64, bool) {
	op := accessOperand(r)
	if op == nil || op.Value.Kind != trace.KindPtr {
		return 0, false
	}
	return op.Value.Addr(), true
}

// trackStorage processes the storage-defining records that collection and
// dependency tracking both resolve through: Alloca (local intervals) and
// named pointer operands (global discovery).
func (a *refAnalyzer) trackStorage(r *trace.Record) {
	switch r.Opcode {
	case trace.OpAlloca:
		if r.Result != nil && r.Result.Value.Kind == trace.KindPtr {
			a.vt.addAlloca(r.Result.Name, r.Func, r.Result.Value.Addr(), int64(r.Result.Size/8), r.DynID)
		}
	case trace.OpLoad, trace.OpStore, trace.OpGetElementPtr:
		// A named, non-numeric pointer operand that no local span owns is a
		// global reference at its base address. This must not consult the
		// footprint-growing resolver: the named base is authoritative and
		// truncates any neighbor whose estimated footprint overgrew it.
		idx := 1
		if r.Opcode == trace.OpStore {
			idx = 2
		}
		op := r.Operand(idx)
		if op == nil || op.Value.Kind != trace.KindPtr || op.Name == "" || isNumeric(op.Name) {
			return
		}
		if a.vt.resolveLocal(op.Value.Addr()) == nil {
			a.vt.noteGlobal(op.Name, op.Value.Addr(), r.DynID, r.Line)
		}
	}
}

// collectible resolves the variable a Load/Store record accesses if the
// record participates in MLI collection: records executed in the loop
// function (call depth zero), plus — with IncludeGlobals — global accesses
// at any depth (the automated FT workaround, §V-B Challenge 1).
func (a *refAnalyzer) collectible(r *trace.Record) *VarInfo {
	switch r.Opcode {
	case trace.OpLoad, trace.OpStore:
	default:
		return nil
	}
	addr, ok := accessAddr(r)
	if !ok {
		return nil
	}
	v := a.vt.resolve(addr)
	if v == nil {
		return nil
	}
	if r.Func != a.spec.Function && !(a.opts.IncludeGlobals && v.Global) {
		return nil
	}
	if v.FirstLine < 0 {
		v.FirstLine = r.Line
	}
	return v
}

// collectRegionA collects an arithmetic variable accessed before the loop.
func (a *refAnalyzer) collectRegionA(r *trace.Record) {
	if v := a.collectible(r); v != nil {
		a.mliA[v.ID()] = v
	}
}

// collectRegionBMatch matches a variable accessed inside the loop against
// the region-A set: the intersection is the MLI set (§IV-A).
func (a *refAnalyzer) collectRegionBMatch(r *trace.Record) {
	if v := a.collectible(r); v != nil {
		if _, inA := a.mliA[v.ID()]; inA {
			a.mli[v.ID()] = v
		}
	}
}

func (a *refAnalyzer) mliList() []*VarInfo {
	out := make([]*VarInfo, 0, len(a.mli))
	for _, v := range a.mli {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Base < out[j].Base
	})
	return out
}

func (a *refAnalyzer) summary(v *VarInfo) *varSummary {
	s, ok := a.sums[v.ID()]
	if !ok {
		s = &varSummary{v: v, written: make(map[uint64]bool),
			firstDyn: -1, uncoveredDyn: -1, afterDyn: -1}
		a.sums[v.ID()] = s
	}
	return s
}

// updateMaps maintains the reg-var map (Load/Store/GEP/BitCast/Alloca and
// Call parameter correlation, Table I) and the reg-reg map (arithmetic and
// the single-Call form). It runs over the whole trace because region C
// reads and induction detection also consult the maps.
func (a *refAnalyzer) updateMaps(r *trace.Record) {
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
func (a *refAnalyzer) updateCallMaps(r *trace.Record) {
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
func (a *refAnalyzer) resolveRegVars(key regKey, depth int, out map[VarID]*VarInfo) {
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
func (a *refAnalyzer) processLoopRecord(r *trace.Record) {
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
		if a.graph != nil && r.Result != nil {
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
func (a *refAnalyzer) ddgArith(r *trace.Record) {
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
func (a *refAnalyzer) processAfterLoop(r *trace.Record) {
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

// nodeOf returns v's vertex. MLI membership is still open while the pass
// runs, so every variable vertex starts as KindLocal; analyzer.finish
// stamps KindMLI on the members of the final MLI set.
func (a *refAnalyzer) nodeOf(v *VarInfo) *ddg.Node {
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

func (a *refAnalyzer) newRegInstance(r *trace.Record) *ddg.Node {
	name := r.Func + ":" + r.Result.Name + "#" + strconv.FormatInt(r.DynID, 10)
	return a.graph.Node(name, ddg.KindRegister)
}

func (a *refAnalyzer) setRegNode(key regKey, n *ddg.Node) {
	a.regNode[key] = n
}

// step feeds a run of consecutive records that share one region through
// the fused pass — what both reference partitioners emit. MLI membership is
// incomplete while the pass runs, so summaries are kept for every variable
// and intersected with the MLI set in finish.
func (a *refAnalyzer) step(recs []trace.Record, reg Region) {
	for k := range recs {
		a.fusedStep(&recs[k], reg)
	}
}

// fusedStep is the per-record body of the fused pass: storage, collect,
// and depend in trace order, with the footprint freeze at the loop's end.
func (a *refAnalyzer) fusedStep(r *trace.Record, reg Region) {
	if reg == RegionAfter && !a.vt.frozen {
		// A reported global footprint is what regions A and B touched:
		// module 1 collects nothing in region C, so an access there must
		// not grow it. Freezing changes no address resolution (global
		// resolution is by base, not extent) — only the recorded sizes.
		a.vt.freeze()
	}
	a.trackStorage(r)
	switch reg {
	case RegionBefore:
		a.collectRegionA(r)
	case RegionLoop:
		a.collectRegionBMatch(r)
	}
	a.updateMaps(r)
	switch reg {
	case RegionLoop:
		a.processLoopRecord(r)
	case RegionAfter:
		a.processAfterLoop(r)
	}
}

// finish completes the analysis once the last record has been stepped:
// the MLI set (module 1's output), the graphs when BuildDDG built them,
// and module 3 — classification from the accumulated summaries plus the
// outermost loop's induction variable. The graph work is booked to
// Timing.Dep with the pass that grew the graph, identification to
// Timing.Identify.
func (a *refAnalyzer) finish(res *Result) {
	res.MLI = a.mliList()
	if a.graph != nil {
		// Variable vertices were created while MLI membership was still
		// open (see nodeOf); their kinds are stamped now that it is final,
		// and Algorithm 1 contracts to them.
		t0 := time.Now()
		for id := range a.mli {
			if n := a.varNodes[id]; n != nil {
				n.Kind = ddg.KindMLI
			}
		}
		res.Complete = a.graph
		res.Contracted = a.graph.Contract(func(n *ddg.Node) bool { return n.Kind == ddg.KindMLI })
		res.Timing.Dep += time.Since(t0)
	}
	t0 := time.Now()
	res.Critical = a.identify()
	if a.opts.Explain {
		res.Provenance = a.provenance(res.Critical)
	}
	res.Timing.Identify = time.Since(t0)
	a.opts.Obs.Histogram("core.identify.ns").Observe(res.Timing.Identify)
}

// identify is module 3: classify MLI variables by their dependency pattern
// and add the induction variable of the outermost main-computation loop
// (§IV-C, Fig. 7). It works purely off the summaries accumulated by the
// fused pass, which is what lets the streaming and online drivers share
// it without a record slice.
func (a *refAnalyzer) identify() []CriticalVar {
	indexVars := a.findInductionVars()
	isIndex := make(map[VarID]bool, len(indexVars))
	for _, v := range indexVars {
		isIndex[v.ID()] = true
	}

	var out []CriticalVar
	for _, v := range a.mliList() {
		if isIndex[v.ID()] {
			continue // reported as Index below
		}
		s := a.sums[v.ID()]
		if s == nil {
			continue // matched by pre-processing but never accessed in B
		}
		if t, ok := classifySummary(v, s); ok {
			out = append(out, critical(v, t))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].Name < out[j].Name
	})
	for _, v := range indexVars {
		out = append(out, critical(v, Index))
	}
	return out
}

// provenance builds the explain trail: one entry per classified variable
// in the exact order identify emitted them, followed by the MLI variables
// no rule matched (sorted by name). critVars is identify's output for
// this analyzer; index membership is recomputed the same way identify did.
func (a *refAnalyzer) provenance(critVars []CriticalVar) []Provenance {
	entries := make([]Provenance, 0, len(a.mli))
	covered := make(map[VarID]bool, len(critVars))
	find := func(name string, fn string, base uint64) *VarInfo {
		for _, v := range a.mliList() {
			if v.Name == name && v.Fn == fn && v.Base == base {
				return v
			}
		}
		// Index variables need not be MLI members.
		for _, s := range a.sums {
			if s.v.Name == name && s.v.Fn == fn && s.v.Base == base {
				return s.v
			}
		}
		return nil
	}
	for _, c := range critVars {
		v := find(c.Name, c.Fn, c.Base)
		if v == nil {
			continue
		}
		covered[v.ID()] = true
		entries = append(entries, a.provEntry(v, c.Type, true))
	}
	for _, v := range a.mliList() {
		if covered[v.ID()] {
			continue
		}
		entries = append(entries, a.provEntry(v, 0, false))
	}
	return entries
}

func (a *refAnalyzer) provEntry(v *VarInfo, t DependencyType, crit bool) Provenance {
	p := Provenance{
		Name: v.Name, Fn: v.Fn, Critical: crit, Type: t,
		FirstAccess: "none", FirstDyn: -1, UncoveredDyn: -1, AfterLoopDyn: -1,
	}
	s := a.sums[v.ID()]
	if s != nil {
		if s.haveFirst {
			p.FirstAccess = "write"
			if s.firstIsRead {
				p.FirstAccess = "read"
			}
		}
		p.FirstDyn = s.firstDyn
		p.Reads, p.Writes = s.reads, s.writes
		p.UncoveredRead, p.UncoveredDyn = s.uncoveredRead, s.uncoveredDyn
		p.ReadAfterLoop, p.AfterLoopDyn = s.readAfterLoop, s.afterDyn
		p.SelfUpdates, p.CmpUses = s.selfUpdate, s.cmpUses
	}
	p.Rule = ruleText(v, s, t, crit)
	return p
}

// findInductionVars identifies the induction variable(s) of the outermost
// loop inside the MCLR. With a module available it uses static loop
// analysis (the paper's llvm-pass-loop API); otherwise it falls back to a
// dynamic heuristic over the trace: among the loop function's locals that
// are both compared at depth 0 and self-updated (v = v ± c), the one with
// the fewest self-updates belongs to the outermost loop (inner loops
// iterate strictly more often).
func (a *refAnalyzer) findInductionVars() []*VarInfo {
	if a.opts.Module != nil {
		if fn := a.opts.Module.Func(a.spec.Function); fn != nil {
			g := cfg.New(fn)
			loop := g.OutermostLoopInRange(a.spec.StartLine, a.spec.EndLine)
			if iv := g.InductionVariable(loop); iv != nil {
				if v := a.vt.lookupLocal(a.spec.Function, iv.Name); v != nil {
					return []*VarInfo{v}
				}
			}
		}
	}
	var best *VarInfo
	var bestCount int64
	for _, s := range a.sums {
		if s.v.Fn != a.spec.Function || s.selfUpdate == 0 || s.cmpUses == 0 {
			continue
		}
		if best == nil || s.selfUpdate < bestCount ||
			(s.selfUpdate == bestCount && s.v.FirstDyn < best.FirstDyn) {
			best = s.v
			bestCount = s.selfUpdate
		}
	}
	if best == nil {
		return nil
	}
	return []*VarInfo{best}
}

// ---- Drivers: the reference pass on the offline schedule and online ----

// refExtent is the loop's dynamic extent: the indices of the first and
// the last record spec contains, (-1, -1) when none does. Region B is
// everything between them, callee excursions included.
func refExtent(recs []trace.Record, spec LoopSpec) (first, last int) {
	first, last = -1, -1
	for i := range recs {
		if spec.contains(&recs[i]) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// refAnalyze is Analyze with the reference pass on the offline schedule:
// the loop's extent, then one fused sweep over the three regions.
func refAnalyze(recs []trace.Record, spec LoopSpec, opts Options) (*Result, error) {
	first, last := refExtent(recs, spec)
	if first < 0 {
		return nil, &NoLoopError{Spec: spec, Records: len(recs)}
	}
	a := newRefAnalyzer(spec, opts)
	res := &Result{Spec: spec, Stats: Stats{
		Records: len(recs),
		RegionA: first,
		RegionB: last - first + 1,
		RegionC: len(recs) - last - 1,
	}}
	a.step(recs[:first], RegionBefore)
	a.step(recs[first:last+1], RegionLoop)
	a.step(recs[last+1:], RegionAfter)
	a.finish(res)
	return res, nil
}

// refParker is the online partitioner the engine's fork replaced: once
// the loop has started, a record outside the MCLR is copied aside
// (parked) until the next in-MCLR record proves it an excursion inside
// the loop (region B) or the end of the stream proves it the loop's exit
// (region C).
type refParker struct {
	spec   LoopSpec
	inLoop bool
	parked []trace.Record
	counts [3]int
}

func (p *refParker) observe(recs []trace.Record, emit func([]trace.Record, Region)) {
	for i := range recs {
		r := &recs[i]
		switch {
		case p.spec.contains(r):
			p.inLoop = true
			p.flush(RegionLoop, emit)
			p.emit(recs[i:i+1], RegionLoop, emit)
		case p.inLoop:
			p.parked = append(p.parked, r.Clone())
		default:
			p.emit(recs[i:i+1], RegionBefore, emit)
		}
	}
}

func (p *refParker) flush(reg Region, emit func([]trace.Record, Region)) {
	p.emit(p.parked, reg, emit)
	p.parked = p.parked[:0]
}

func (p *refParker) emit(recs []trace.Record, reg Region, emit func([]trace.Record, Region)) {
	if len(recs) > 0 {
		p.counts[reg] += len(recs)
		emit(recs, reg)
	}
}

// refOnline is Engine with the reference pass and the parking
// partitioner, fed recs in batches that end before each cut.
func refOnline(recs []trace.Record, spec LoopSpec, opts Options, cuts []int) (*Result, error) {
	a := newRefAnalyzer(spec, opts)
	p := &refParker{spec: spec}
	feedCut(recs, cuts, func(b []trace.Record) { p.observe(b, a.step) })
	p.flush(RegionAfter, a.step)
	if !p.inLoop {
		return nil, &NoLoopError{Spec: spec, Records: p.counts[RegionBefore]}
	}
	res := &Result{Spec: spec, Stats: Stats{
		Records: p.counts[0] + p.counts[1] + p.counts[2],
		RegionA: p.counts[RegionBefore],
		RegionB: p.counts[RegionLoop],
		RegionC: p.counts[RegionAfter],
	}}
	a.finish(res)
	return res, nil
}

// engineOnline runs the production Engine over the same batches.
func engineOnline(recs []trace.Record, spec LoopSpec, opts Options, cuts []int) (*Result, error) {
	e, err := NewEngine(spec, opts)
	if err != nil {
		return nil, err
	}
	feedCut(recs, cuts, func(b []trace.Record) { e.ObserveBatch(b, nil) })
	return e.Finish()
}

func feedCut(recs []trace.Record, cuts []int, observe func([]trace.Record)) {
	prev := 0
	for _, c := range append(cuts, len(recs)) {
		if c > prev {
			observe(recs[prev:c])
			prev = c
		}
	}
}

// ---- Comparison ----

// varFields renders every field of a VarInfo the pass reports.
func varFields(v *VarInfo) string {
	return fmt.Sprintf("%s/%s@%x size=%d global=%v firstDyn=%d firstLine=%d",
		v.Fn, v.Name, v.Base, v.SizeBytes, v.Global, v.FirstDyn, v.FirstLine)
}

// sameComplete reports whether two complete DDGs are identical: every
// vertex with its ID, name and kind in insertion order, then the
// time-ordered R/W sequence.
func sameComplete(want, got *ddg.Graph) bool {
	if want == nil || got == nil {
		return want == got
	}
	wn, gn := want.Nodes(), got.Nodes()
	if len(wn) != len(gn) {
		return false
	}
	for i := range wn {
		if wn[i].ID != gn[i].ID || wn[i].Name != gn[i].Name || wn[i].Kind != gn[i].Kind {
			return false
		}
	}
	we, ge := want.Events(), got.Events()
	if len(we) != len(ge) {
		return false
	}
	for i := range we {
		if we[i].Node.ID != ge[i].Node.ID || we[i].Kind != ge[i].Kind || we[i].Time != ge[i].Time {
			return false
		}
	}
	return true
}

// contractedListing renders a contracted DDG by content, sorted:
// contraction resolves roots through maps, so its vertex IDs and the
// order of equal-time events are not stable run to run.
func contractedListing(g *ddg.Graph) string {
	if g == nil {
		return "<nil>"
	}
	var lines []string
	for _, n := range g.Nodes() {
		lines = append(lines, fmt.Sprintf("node %s %s", n.Name, n.Kind))
	}
	for _, e := range g.Events() {
		lines = append(lines, fmt.Sprintf("ev %s %s @%d", e.Node.Name, e.Kind, e.Time))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// referenceDiff lists every way got differs from the reference's want:
// region stats, the critical list, every field of every MLI variable in
// order, the explain trail, and both graphs. Timing is not compared.
func referenceDiff(want, got *Result) []string {
	var diffs []string
	if want.Stats != got.Stats {
		diffs = append(diffs, fmt.Sprintf("stats: want %+v, got %+v", want.Stats, got.Stats))
	}
	if !reflect.DeepEqual(want.Critical, got.Critical) {
		diffs = append(diffs, fmt.Sprintf("critical:\n  want %+v\n  got  %+v", want.Critical, got.Critical))
	}
	if len(want.MLI) != len(got.MLI) {
		diffs = append(diffs, fmt.Sprintf("MLI: want %d variables, got %d", len(want.MLI), len(got.MLI)))
	}
	for i := range min(len(want.MLI), len(got.MLI)) {
		if w, g := varFields(want.MLI[i]), varFields(got.MLI[i]); w != g {
			diffs = append(diffs, fmt.Sprintf("MLI[%d]: want %s, got %s", i, w, g))
		}
	}
	if !reflect.DeepEqual(want.Provenance, got.Provenance) {
		diffs = append(diffs, fmt.Sprintf("provenance:\n  want %+v\n  got  %+v", want.Provenance, got.Provenance))
	}
	if !sameComplete(want.Complete, got.Complete) {
		diffs = append(diffs, "complete DDG differs")
	}
	if contractedListing(want.Contracted) != contractedListing(got.Contracted) {
		diffs = append(diffs, "contracted DDG differs")
	}
	return diffs
}

// CheckReferenceOffline holds Analyze to the reference pass on recs: the
// same result, or the same error. It and CheckReferenceOnline are
// exported for the port test in package core_test, which can import the
// ports (progs imports this package).
func CheckReferenceOffline(t *testing.T, label string, recs []trace.Record, spec LoopSpec, opts Options) {
	t.Helper()
	want, wantErr := refAnalyze(recs, spec, opts)
	got, gotErr := Analyze(recs, spec, opts)
	checkReference(t, label+" offline", want, got, wantErr, gotErr)
}

// CheckReferenceOnline holds Engine, fed recs in the batches that end
// before each cut, to the reference pass fed the same batches.
func CheckReferenceOnline(t *testing.T, label string, recs []trace.Record, spec LoopSpec, opts Options, cuts []int) {
	t.Helper()
	want, wantErr := refOnline(recs, spec, opts, cuts)
	got, gotErr := engineOnline(recs, spec, opts, cuts)
	checkReference(t, label+" online", want, got, wantErr, gotErr)
}

func checkReference(t *testing.T, label string, want, got *Result, wantErr, gotErr error) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Errorf("%s: error: want %v, got %v", label, wantErr, gotErr)
		return
	}
	if wantErr != nil {
		return
	}
	for _, d := range referenceDiff(want, got) {
		t.Errorf("%s: %s", label, d)
	}
}

// ---- Seeded random record streams ----

// passSeeds is how many seeds TestPassMatchesReferenceRandom runs; CI runs
// a wide range with -pass.seeds=N.
var passSeeds = flag.Int("pass.seeds", 100, "seeds TestPassMatchesReferenceRandom runs")

// randomSpec is the loop every random stream has: main's lines 10-20.
var randomSpec = LoopSpec{Function: "main", StartLine: 10, EndLine: 20}

// genVar is a variable the generator can address.
type genVar struct {
	name string
	base uint64
	size uint64 // bytes
}

// streamGen writes a random but well-formed record stream: main allocates
// its locals before the loop, runs the loop on lines 10-20 and reads
// results after it on lines 30-40, and calls f (form 2, with a pointer
// parameter p and sometimes a result) and pow (form 1). The cases the
// reference must agree on are generated on purpose:
//   - in-loop excursions of 1 to several hundred records away from the
//     MCLR: the back edge's one record on line 21, main's own records on
//     lines 21-22, and calls whose bodies run from a few records to a few
//     hundred — every seed has one of each;
//   - a global (G3) first named, and grown, inside a callee excursion;
//   - an epilogue that calls f, reads the loop's outputs, grows a global
//     past its end, and names a new global (G4) at a base inside G2's
//     grown footprint, which truncates G2;
//   - reused stack slots: main re-allocates mloop at the same base every
//     iteration (sometimes with another size), and every call re-allocates
//     f's locals at one of two bases, buf with one of two sizes, or h's
//     local over f's;
//   - one template that reads buf through a register on every call of f,
//     at an element only the larger buf has, before and after h's local
//     takes buf's span: a stale cached local (staleRead);
//   - an Alloca of main's over an element of G1 that one template reads
//     before and after it: a local in the hull of the cached global
//     resolutions (overGlobal);
//   - registers reloaded between arithmetic rewrites: a small register
//     pool per function, so results overwrite rows of every kind;
//   - loads from addresses no variable owns, which must drop a register's
//     sources;
//   - GEP and BitCast chains whose result address resolves nowhere, so
//     the base operand's row decides;
//   - globals learned by name and grown by element accesses, and region-C
//     reads.
//
// Arithmetic only reads registers of a lower pool index than it writes,
// so the reg-reg rows form no cycle: the reference chases every path, and
// a cycle with two sources per step would take 2^64 steps to exhaust.
type streamGen struct {
	rng  *rand.Rand
	recs []trace.Record
	dyn  int64
}

const genRegs = 8

func genReg(i int) string { return fmt.Sprintf("%%%d", i) }

func (g *streamGen) anyReg() string { return genReg(g.rng.Intn(genRegs)) }

func (g *streamGen) emit(fn string, line, op int, res *trace.Operand, ops ...trace.Operand) {
	g.dyn += 1 + int64(g.rng.Intn(2))
	g.recs = append(g.recs, trace.Record{Line: line, Func: fn, Block: "b", Opcode: op, DynID: g.dyn, Ops: ops, Result: res})
}

func ptrOp(idx int, name string, isReg bool, addr uint64) trace.Operand {
	return trace.Operand{Index: idx, Size: 64, Value: trace.PtrValue(addr), IsReg: isReg, Name: name}
}

func regOp(idx int, name string) trace.Operand {
	return trace.Operand{Index: idx, Size: 64, Value: trace.IntValue(int64(idx)), IsReg: true, Name: name}
}

func resOp(name string) *trace.Operand {
	return &trace.Operand{Size: 64, Value: trace.IntValue(1), IsReg: true, Name: name}
}

func (g *streamGen) alloca(fn string, line int, v genVar) {
	g.emit(fn, line, trace.OpAlloca,
		&trace.Operand{Size: int(v.size * 8), Value: trace.PtrValue(v.base), IsReg: true, Name: v.name},
		trace.Operand{Index: 1, Size: 64, Value: trace.IntValue(1)})
}

// addr picks an element of v, now and then one past its end.
func (g *streamGen) addr(v genVar) uint64 {
	n := v.size / 8
	if g.rng.Intn(8) == 0 {
		n++
	}
	return v.base + 8*uint64(g.rng.Intn(int(n)))
}

// Addresses below the first global's base resolve to no variable; the
// last global owns every address above its base. genGap is where G2's
// footprint grows past its declared 8 bytes, over the bases of G4 and G3,
// which the stream names later.
const (
	genNowhere = 0x800
	genFar     = 0x9000_0000
	genGap     = 0x1208
)

// pointer returns the pointer operand (at index idx) of an access to v:
// by v's name, through a register a GEP just computed, or by a numeric
// name; occasionally an address no variable owns, or one far into the
// last global.
func (g *streamGen) pointer(fn string, line, idx int, v genVar) trace.Operand {
	a := g.addr(v)
	switch g.rng.Intn(13) {
	case 0, 1:
		return ptrOp(idx, "", true, genNowhere+uint64(g.rng.Intn(4))*8)
	case 2:
		return ptrOp(idx, "", true, genFar+uint64(g.rng.Intn(4))*8)
	case 12:
		return g.overreach(idx)
	case 3:
		return ptrOp(idx, "7", false, a)
	case 4, 5, 6:
		// A GEP off v's name or, chained, off a register an earlier GEP or
		// Load wrote.
		base := ptrOp(1, v.name, true, v.base)
		if g.rng.Intn(2) == 0 {
			base.Name = g.anyReg()
		}
		r := g.anyReg()
		resAddr := trace.PtrValue(a)
		if g.rng.Intn(3) == 0 {
			resAddr = trace.PtrValue(genNowhere) // the base operand's row decides
		}
		op := trace.OpGetElementPtr
		if g.rng.Intn(4) == 0 {
			op = trace.OpBitCast
		}
		g.emit(fn, line, op, &trace.Operand{Size: 64, Value: resAddr, IsReg: true, Name: r}, base, regOp(2, g.anyReg()))
		return ptrOp(idx, r, true, a)
	}
	return ptrOp(idx, v.name, g.rng.Intn(2) == 0, a)
}

// overreach returns an unnamed pointer operand into the gap past G2: it
// resolves to whichever of G2, G4 and G3 is named and nearest below it,
// and grows that global's footprint.
func (g *streamGen) overreach(idx int) trace.Operand {
	return ptrOp(idx, "", true, genGap+uint64(g.rng.Intn(31))*8)
}

func (g *streamGen) load(fn string, line int, v genVar) {
	p := g.pointer(fn, line, 1, v)
	g.emit(fn, line, trace.OpLoad, resOp(g.anyReg()), p)
}

func (g *streamGen) store(fn string, line int, v genVar) {
	val := trace.Operand{Index: 1, Size: 64, Value: trace.IntValue(3)}
	if g.rng.Intn(4) != 0 {
		val = regOp(1, g.anyReg())
	}
	p := g.pointer(fn, line, 2, v)
	g.emit(fn, line, trace.OpStore, nil, val, p)
}

// arith writes a register from up to two lower-indexed ones.
func (g *streamGen) arith(fn string, line int) {
	dst := 1 + g.rng.Intn(genRegs-1)
	ops := []trace.Operand{regOp(1, genReg(g.rng.Intn(dst)))}
	if g.rng.Intn(2) == 0 {
		ops = append(ops, regOp(2, genReg(g.rng.Intn(dst))))
	} else {
		ops = append(ops, trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(1)})
	}
	op := []int{trace.OpAdd, trace.OpMul, trace.OpFAdd, trace.OpICmp, trace.OpSExt, trace.OpPHI}[g.rng.Intn(6)]
	if g.rng.Intn(6) == 0 {
		// Form 1: a call with no parameter operands behaves like arithmetic.
		op = trace.OpCall
		ops = append(ops, trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(0x10), Name: "pow"})
	}
	g.emit(fn, line, op, resOp(genReg(dst)), ops...)
}

// induction is v = v + 1 with v compared: the dynamic heuristic's signal.
func (g *streamGen) induction(fn string, line int, v genVar) {
	lo := g.rng.Intn(genRegs - 1)
	hi := lo + 1 + g.rng.Intn(genRegs-1-lo)
	g.emit(fn, line, trace.OpLoad, resOp(genReg(lo)), ptrOp(1, v.name, true, v.base))
	g.emit(fn, line, trace.OpAdd, resOp(genReg(hi)), regOp(1, genReg(lo)), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(1)})
	g.emit(fn, line, trace.OpStore, nil, regOp(1, genReg(hi)), ptrOp(2, v.name, true, v.base))
	g.emit(fn, line, trace.OpICmp, resOp(genReg(hi)), regOp(1, genReg(lo)), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(9)})
	if g.rng.Intn(3) == 0 {
		// Reload the sum from an address no variable owns, and store it: the
		// Load must have dropped the sum's sources, so this is no
		// self-update.
		g.emit(fn, line, trace.OpAdd, resOp(genReg(hi)), regOp(1, genReg(lo)), trace.Operand{Index: 2, Size: 64, Value: trace.IntValue(1)})
		g.emit(fn, line, trace.OpLoad, resOp(genReg(hi)), ptrOp(1, "", true, genNowhere))
		g.emit(fn, line, trace.OpStore, nil, regOp(1, genReg(hi)), ptrOp(2, v.name, true, v.base))
	}
}

// body emits n random steps of fn over vars.
func (g *streamGen) body(fn string, lines [2]int, vars []genVar, n int) {
	for range n {
		line := lines[0] + g.rng.Intn(lines[1]-lines[0]+1)
		v := vars[g.rng.Intn(len(vars))]
		switch k := g.rng.Intn(10); {
		case k < 3:
			g.load(fn, line, v)
		case k < 5:
			g.store(fn, line, v)
		case k < 8:
			g.arith(fn, line)
		case k == 8:
			g.induction(fn, line, v)
		default:
			if fn == "main" {
				g.call(line, vars)
			} else {
				g.load(fn, line, v)
			}
		}
	}
}

var (
	genGlobals = []genVar{{"G0", 0x1000, 8}, {"G1", 0x1100, 64}, {"G2", 0x1200, 8}}
	genLate    = genVar{"G3", 0x1240, 64} // first named inside a callee excursion
	genTail    = genVar{"G4", 0x1220, 8}  // first named in the epilogue
	genMain    = []genVar{{"a", 0x7f00, 8}, {"b", 0x7f40, 64}, {"i", 0x7f80, 8}, {"s", 0x7f88, 8}}
	genMloop   = genVar{"mloop", 0x7fc0, 8}
	genF       = []genVar{{"t", 0x6000, 8}, {"buf", 0x6008, 32}}
	genFAlt    = uint64(0x6100) // f's other frame base
	genH       = genVar{"u", 0x6000, 16}
)

// call emits a form-2 call main → f(p) with a body of random length over
// one of the globals main named.
func (g *streamGen) call(line int, mainVars []genVar) {
	steps := 3 + g.rng.Intn(8)
	if g.rng.Intn(8) == 0 {
		steps = 40 + g.rng.Intn(120)
	}
	g.callWith(line, mainVars, genGlobals[g.rng.Intn(len(genGlobals))], steps)
}

// callWith emits a form-2 call main → f(p), sometimes with a result, with
// f's body of steps random steps over f's locals, p and global, sometimes
// through a nested call to h that reuses f's frame.
func (g *streamGen) callWith(line int, mainVars []genVar, global genVar, steps int) {
	arg := mainVars[g.rng.Intn(len(mainVars))]
	argOp := ptrOp(1, arg.name, true, arg.base)
	if g.rng.Intn(3) == 0 {
		argOp = ptrOp(1, g.anyReg(), true, arg.base)
	}
	param := argOp
	param.Index, param.Name = -1, "p"
	var res *trace.Operand
	if g.rng.Intn(3) == 0 {
		// A call with a result: in region B, a register vertex of the DDG.
		res = resOp(g.anyReg())
	}
	g.emit("main", line, trace.OpCall, res, argOp,
		trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(0x20), Name: "f"}, param)
	base := genF[0].base
	if g.rng.Intn(3) == 0 {
		base = genFAlt
	}
	var fvars []genVar
	for _, v := range genF {
		v.base += base - genF[0].base
		if v.name == "buf" && g.rng.Intn(2) == 0 {
			v.size /= 2
		}
		g.alloca("f", 100, v)
		fvars = append(fvars, v)
	}
	pv := genVar{"p", arg.base, arg.size}
	// A global's first reference names its base.
	g.emit("f", 101, trace.OpStore, nil, regOp(1, g.anyReg()), ptrOp(2, global.name, true, global.base))
	g.staleRead(fvars[1])
	g.body("f", [2]int{101, 110}, append(fvars, pv, global), steps)
	if g.rng.Intn(4) == 0 {
		g.emit("f", 111, trace.OpCall, nil, trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(0x30), Name: "h"})
		g.alloca("h", 200, genH)
		g.body("h", [2]int{201, 205}, []genVar{genH, genGlobals[0]}, 1+g.rng.Intn(4))
		g.emit("h", 206, trace.OpRet, nil)
		g.staleRead(fvars[1])
	}
	g.emit("f", 112, trace.OpRet, nil)
}

// staleRead reads buf's element at offset 16 (past the end of the smaller
// buf) through register %7 on line 102: one template on every call of f,
// whose access cache holds buf's span from the last read while a call
// re-allocates buf with the other size, or h's local evicts it.
func (g *streamGen) staleRead(buf genVar) {
	g.emit("f", 102, trace.OpLoad, resOp(genReg(1)), ptrOp(1, genReg(7), true, buf.base+16))
}

// overGlobal reads an element of G1 through register %7 on line, allocates
// a local of main's over it, inside the hull of the global resolutions
// the access cache has handed out, and reads it again through the same
// template: the second read is the local's.
func (g *streamGen) overGlobal(line int) {
	addr := genGlobals[1].base + 8*uint64(1+g.rng.Intn(6))
	read := func() { g.emit("main", line, trace.OpLoad, resOp(genReg(0)), ptrOp(1, genReg(7), true, addr)) }
	read()
	g.alloca("main", line, genVar{"o", addr, 8})
	read()
}

// randomStream generates one stream from seed.
func randomStream(seed int64) []trace.Record {
	g := &streamGen{rng: rand.New(rand.NewSource(seed))}
	mloop := func() genVar {
		v := genMloop
		v.size = []uint64{8, 8, 16}[g.rng.Intn(3)]
		return v
	}
	// Region A: main's locals, first references to the globals, a warm-up,
	// and G2 grown over the bases of G4 and G3.
	for _, v := range genMain {
		g.alloca("main", 1, v)
	}
	g.alloca("main", 2, mloop())
	vars := append(append([]genVar(nil), genMain...), genMloop)
	for _, v := range genGlobals {
		g.store("main", 3, genVar{v.name, v.base, 8})
	}
	g.emit("main", 3, trace.OpLoad, resOp(g.anyReg()), ptrOp(1, "", true, genLate.base+16))
	g.body("main", [2]int{3, 9}, append(vars, genGlobals...), 10+g.rng.Intn(20))
	// Region B: two or more iterations of the loop, with main's own reused
	// slot every iteration and the back edge on line 21, outside the MCLR.
	// The first iteration calls f for a few hundred records, naming G3 and
	// growing it.
	for it, n := 0, 2+g.rng.Intn(4); it < n; it++ {
		g.alloca("main", 10, mloop())
		g.induction("main", 11, genMain[2])
		if it == 0 {
			g.callWith(12, vars, genLate, 40+g.rng.Intn(120))
		}
		if it == 1 && g.rng.Intn(2) == 0 {
			g.overGlobal(13)
		}
		g.body("main", [2]int{10, 20}, append(vars, genGlobals...), 5+g.rng.Intn(25))
		if g.rng.Intn(2) == 0 {
			g.body("main", [2]int{21, 22}, append(vars, genGlobals...), 1+g.rng.Intn(3))
			g.emit("main", 20, trace.OpBr, nil)
		}
		g.emit("main", 21, trace.OpBr, nil)
	}
	// Region C: a call, the loop's outputs read, a global grown past its
	// end, G4 named inside G2's grown footprint, then random steps.
	g.call(30, vars)
	for _, v := range append(vars, genGlobals...) {
		g.load("main", 31, v)
	}
	g.emit("main", 32, trace.OpLoad, resOp(g.anyReg()), g.overreach(1))
	g.emit("main", 33, trace.OpStore, nil, regOp(1, g.anyReg()), ptrOp(2, genTail.name, true, genTail.base))
	g.body("main", [2]int{34, 40}, append(append(vars, genGlobals...), genTail, genLate), 3+g.rng.Intn(10))
	return g.recs
}

// randomCuts cuts n records into batches from one record up to a
// per-seed ceiling.
func randomCuts(rng *rand.Rand, n int) []int {
	ceil := 1 << rng.Intn(8)
	var cuts []int
	for c := 1 + rng.Intn(ceil); c < n; c += 1 + rng.Intn(ceil) {
		cuts = append(cuts, c)
	}
	return cuts
}

// TestPassMatchesReferenceRandom holds the pass to the reference on
// seeded random streams, offline and online in random batches, with
// IncludeGlobals on and off, Explain and BuildDDG on.
func TestPassMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= int64(*passSeeds); seed++ {
		recs := randomStream(seed)
		cuts := randomCuts(rand.New(rand.NewSource(-seed)), len(recs))
		for _, globals := range []bool{true, false} {
			opts := Options{IncludeGlobals: globals, Explain: true, BuildDDG: true}
			label := fmt.Sprintf("seed %d globals=%v", seed, globals)
			CheckReferenceOffline(t, label, recs, randomSpec, opts)
			CheckReferenceOnline(t, label, recs, randomSpec, opts, cuts)
		}
		if t.Failed() {
			t.Fatalf("seed %d: stream of %d records differs from the reference", seed, len(recs))
		}
	}
}
