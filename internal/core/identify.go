package core

import (
	"slices"
	"sort"

	"autocheck/internal/cfg"
)

// identify is module 3: classify MLI variables by their dependency pattern
// and add the induction variable of the outermost main-computation loop
// (§IV-C, Fig. 7). It works purely off the summaries accumulated by the
// fused pass, which is what lets the streaming and online drivers share
// it without a record slice.
func (a *analyzer) identify() []CriticalVar {
	indexVars := a.findInductionVars()

	var out []CriticalVar
	for _, v := range a.mliList() {
		if slices.ContainsFunc(indexVars, func(iv *VarInfo) bool { return iv.slot == v.slot }) {
			continue // reported as Index below
		}
		s := a.vars[v.slot].sum
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

func critical(v *VarInfo, t DependencyType) CriticalVar {
	return CriticalVar{Name: v.Name, Fn: v.Fn, Base: v.Base, SizeBytes: v.SizeBytes, Type: t}
}

// classifySummary applies the §IV-C decision rules to one variable's
// accumulated signals. It is the single point of truth: identify builds
// the critical list from it and the explain trail reports it, so the two
// can never diverge.
func classifySummary(v *VarInfo, s *varSummary) (DependencyType, bool) {
	isArray := v.SizeBytes > 8
	switch {
	case s.firstIsRead && s.writes > 0:
		// WAR: the variable's old value is consumed before the loop
		// overwrites it; a restart would lose the cross-iteration state.
		return WAR, true
	case isArray && s.writes > 0 && s.reads > 0 && s.uncoveredRead:
		// RAPO: the loop overwrites only part of the array before
		// reading it; the unwritten elements cannot be recomputed.
		return RAPO, true
	case s.writes > 0 && s.readAfterLoop:
		// Outcome: the loop's result feeds post-loop computation.
		return Outcome, true
	}
	return 0, false
}

// ruleText spells out, for the explain trail, why a classification fired
// or why none did. The conditions mirror classifySummary branch for
// branch.
func ruleText(v *VarInfo, s *varSummary, t DependencyType, crit bool) string {
	if crit {
		switch t {
		case WAR:
			return "first region-B access is a read and the loop writes it: the pre-loop value is consumed before being overwritten (WAR)"
		case RAPO:
			return "array is partially overwritten before being read: an element was read that no earlier region-B store covered (RAPO)"
		case Outcome:
			return "the loop writes it and region C reads it: the loop's result feeds post-loop computation (Outcome)"
		case Index:
			return "induction variable of the outermost main-computation loop (Index)"
		}
	}
	switch {
	case s == nil || (s.reads == 0 && s.writes == 0):
		return "matched by pre-processing but never accessed inside the loop: recomputable, not critical"
	case s.writes == 0:
		return "only read inside the loop, never written: its value survives a restart unchanged, not critical"
	default:
		return "first access is a write, every read was covered by an earlier store, and region C never reads it: fully recomputable, not critical"
	}
}

// provenance builds the explain trail: one entry per classified variable
// in the exact order identify emitted them, followed by the MLI variables
// no rule matched (sorted by name). critVars is identify's output for
// this analyzer; index membership is recomputed the same way identify did.
func (a *analyzer) provenance(critVars []CriticalVar) []Provenance {
	mli := a.mliList()
	entries := make([]Provenance, 0, len(mli))
	covered := make([]bool, len(a.vars))
	for _, c := range critVars {
		slot, ok := a.vt.slots[VarID{Fn: c.Fn, Name: c.Name, Base: c.Base}]
		if !ok {
			continue
		}
		// The MLI instance, else — index variables need not be MLI
		// members — the summary's.
		v := a.vars[slot].mli
		if v == nil && a.vars[slot].sum != nil {
			v = a.vars[slot].sum.v
		}
		if v == nil {
			continue
		}
		covered[slot] = true
		entries = append(entries, a.provEntry(v, c.Type, true))
	}
	for _, v := range mli {
		if covered[v.slot] {
			continue
		}
		entries = append(entries, a.provEntry(v, 0, false))
	}
	return entries
}

func (a *analyzer) provEntry(v *VarInfo, t DependencyType, crit bool) Provenance {
	p := Provenance{
		Name: v.Name, Fn: v.Fn, Critical: crit, Type: t,
		FirstAccess: "none", FirstDyn: -1, UncoveredDyn: -1, AfterLoopDyn: -1,
	}
	s := a.vars[v.slot].sum
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
// iterate strictly more often). The fallback walks the slots in
// first-seen order; ties on the count go to the earliest Alloca, so the
// walk order never decides.
func (a *analyzer) findInductionVars() []*VarInfo {
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
	for i := range a.vars {
		s := a.vars[i].sum
		if s == nil || s.v.Fn != a.spec.Function || s.selfUpdate == 0 || s.cmpUses == 0 {
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
