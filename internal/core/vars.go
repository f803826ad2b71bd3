// Package core implements AutoCheck itself: the three-module analytical
// model of the paper (Fig. 2) that turns a dynamic instruction execution
// trace plus the main computation loop's location into the set of critical
// variables to checkpoint.
//
//   - Pre-processing (§IV-A): partition the trace into the regions before /
//     inside / after the main computation loop, collect the variables
//     accessed at call depth zero in the before and inside regions, and
//     match them to obtain the Main-Loop-Input (MLI) variables.
//   - Data dependency analysis (§IV-B): maintain the on-the-fly "reg-var"
//     and "reg-reg" maps over Load/Store/GetElementPtr/BitCast, arithmetic,
//     and both Call forms; update the DDG at every Store; contract the DDG
//     to MLI variables (Algorithm 1). Both maps live in one register
//     table: a register's row holds its reg-var entry (v, the variable it
//     currently refers to, or nil) and its reg-reg entry (srcs, the
//     registers it was computed from, empty when none), so a record finds
//     the row of its result once and rewrites it in place.
//   - Identification (§IV-C): classify MLI variables as Write-After-Read,
//     Read-After-Partially-Overwritten, or Outcome from the time-ordered
//     R/W sequence, and add the outermost loop's induction variable
//     (Index).
//
// Per-variable state lives in slots: the variable table numbers every
// distinct VarID densely, in first-seen order, when it first learns the
// ID (an Alloca, a global's first named reference), and stamps the slot
// on each VarInfo, so an access reaches its variable's region-A mark,
// MLI match and summary by index. A reused stack slot — the same
// function, name and base on a later call — is a new *VarInfo with the
// same VarID and therefore the same slot. The MLI set reports the latest
// instance matched (as region A marks the latest instance seen); a
// summary keeps the first instance that reached it.
package core

import (
	"math"
	"slices"
	"sort"
)

// VarID identifies a variable: its symbolic name plus its base memory
// address. The address component is the paper's Challenge 2 resolution —
// local variables in different function calls may share a name, but never
// an address at the same time.
type VarID struct {
	Fn   string // declaring function; "" for globals
	Name string
	Base uint64
}

// VarInfo describes one observed variable.
type VarInfo struct {
	Name      string
	Fn        string // declaring function; "" for globals
	Base      uint64
	SizeBytes int64 // allocation size; for globals, the observed footprint
	Global    bool
	FirstDyn  int64 // dynamic ID of the Alloca (locals) or first access
	FirstLine int   // source line of first non-synthesized access
	slot      int   // the table's dense index of ID() (see varTable)
}

// ID returns the variable's identity key.
func (v *VarInfo) ID() VarID { return VarID{Fn: v.Fn, Name: v.Name, Base: v.Base} }

// span is a half-open address interval [lo, hi) owned by a variable.
// For a global, hi is its footprint's end, and bhi the end its growth
// inside an open fork reached (see varTable.fork); bhi == hi otherwise.
type span struct {
	lo, hi, bhi uint64
	v           *VarInfo
}

// varTable resolves memory addresses to variables. Local variables are
// registered from Alloca records (which carry the allocation size); their
// spans are replaced on-the-fly when stack addresses are reused by later
// calls — the same "active state at a certain point" semantics as the
// paper's reg-var map. Globals have no Alloca records; their base addresses
// are learned from the first direct (named) reference and their extent
// grows with the observed access footprint.
//
// addAlloca and noteGlobal stamp each VarInfo they create with its VarID's
// slot (see the package comment): once per allocation, never per access,
// and keyed by identity, never by pointer.
//
// A reported footprint is what regions A and B touched. While a fork is
// open (engine.go) the run may still turn out to be region C, so its
// growth is held aside in bhi: commit applies it, and a rollback leaves
// it unapplied, as region C grows nothing. A new global's base truncates
// both ends, each as it stands. Resolution is unaffected either way —
// globals resolve by greatest base, never by extent.
//
// The table also vouches for the resolutions it hands out (see
// resolution): live holds, per slot, the span its local has in locals
// (the zero span when it has none), gen counts the changes that can make
// a global's resolution stale, and [glo, ghi) is the hull of the global
// resolutions handed out since the last.
type varTable struct {
	locals   []span // sorted by lo, non-overlapping
	globals  []span // sorted by lo; hi grows with observed footprint
	gByName  map[string]*VarInfo
	slots    map[VarID]int
	fork     bool // hold growth aside in bhi
	live     []span
	gen      uint32
	glo, ghi uint64
}

// resolution is an address resolved together with its neighbourhood:
// every address in [lo, hi) resolves as the one resolved did, without
// growing any footprint, for as long as the resolution holds. A template
// keeps the last one its access resolved to (shape.at), which makes
// resolving the next access of the template a range check (at) whenever
// it falls in the same variable: an inline cache. Keeping it exact takes
// three rules:
//
//   - a local's range is its span, and holds while its slot's live span is
//     that span; the variable is the live one, so a callee re-entered with
//     its locals where they were resolves to their new instances;
//   - a global's range ends at bhi, where the next access would grow it,
//     and is clipped to the next global's base and the local spans around
//     it; growth only moves bhi up, so it never makes the range stale;
//   - a global's resolution holds while the table's generation is gen: a
//     new global, which can truncate any range, and an Alloca whose span
//     overlaps [glo, ghi), which could take addresses of a global's range,
//     start a new generation.
//
// So a callee's Allocas, which overlap no global, leave every global's
// resolution standing and change a local's only when they move its span.
// The zero resolution holds no address.
type resolution struct {
	v      *VarInfo
	lo, hi uint64
	gen    uint32
	local  bool
}

// at returns the variable c resolves addr to, or nil when c does not hold
// addr.
func (t *varTable) at(c *resolution, addr uint64) *VarInfo {
	if addr-c.lo >= c.hi-c.lo {
		return nil
	}
	if !c.local {
		if c.gen != t.gen {
			return nil
		}
		return c.v
	}
	sp := &t.live[c.v.slot]
	if sp.lo != c.lo || sp.hi != c.hi {
		return nil
	}
	return sp.v
}

// invalidate starts a new generation: no global's resolution handed out so
// far holds.
func (t *varTable) invalidate() {
	t.gen++
	t.glo, t.ghi = math.MaxUint64, 0
}

// commit applies the growth held aside and ends the fork.
func (t *varTable) commit() {
	t.fork = false
	for i := range t.globals {
		if g := &t.globals[i]; g.hi != g.bhi {
			g.hi = g.bhi
			g.v.SizeBytes = int64(g.hi - g.lo)
		}
	}
}

func newVarTable() *varTable {
	return &varTable{gByName: make(map[string]*VarInfo), slots: make(map[VarID]int), glo: math.MaxUint64}
}

// slotOf stamps v with its identity's slot, assigning the next one to an
// ID the table has not seen.
func (t *varTable) slotOf(v *VarInfo) {
	id := v.ID()
	s, ok := t.slots[id]
	if !ok {
		s = len(t.slots)
		t.slots[id] = s
	}
	v.slot = s
}

// reset empties the table for a fresh trace while keeping its allocated
// storage. The VarInfo objects the old spans pointed at are never
// mutated, so results that retained them across a reset stay valid.
func (t *varTable) reset() {
	t.locals = t.locals[:0]
	t.globals = t.globals[:0]
	clear(t.gByName)
	clear(t.slots)
	t.live = t.live[:0]
	t.fork = false
	t.invalidate()
}

// addAlloca registers a local variable's storage, evicting any previous
// spans that overlap the new one (stack reuse).
func (t *varTable) addAlloca(name, fn string, base uint64, size int64, dyn int64) *VarInfo {
	if size <= 0 {
		size = 8
	}
	v := &VarInfo{Name: name, Fn: fn, Base: base, SizeBytes: size, FirstDyn: dyn, FirstLine: -1}
	t.slotOf(v)
	lo, hi := base, base+uint64(size)
	// Find the range of spans overlapping [lo, hi).
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > lo })
	j := i
	for j < len(t.locals) && t.locals[j].lo < hi {
		t.live[t.locals[j].v.slot] = span{}
		j++
	}
	if lo < t.ghi && hi > t.glo {
		t.invalidate()
	}
	sp := span{lo: lo, hi: hi, v: v}
	for len(t.live) <= v.slot {
		t.live = append(t.live, span{})
	}
	t.live[v.slot] = sp
	t.locals = slices.Replace(t.locals, i, j, sp)
	return v
}

// noteGlobal learns (or refreshes) a global variable from a direct named
// reference at its base address. If a previously learned global's observed
// footprint has grown over this base (footprints are estimates until every
// base is known), it is truncated at the new base.
func (t *varTable) noteGlobal(name string, base uint64, dyn int64, line int) *VarInfo {
	if v, ok := t.gByName[name]; ok {
		return v
	}
	v := &VarInfo{Name: name, Fn: "", Base: base, SizeBytes: 8, Global: true, FirstDyn: dyn, FirstLine: line}
	t.slotOf(v)
	t.gByName[name] = v
	t.invalidate()
	sp := span{lo: base, hi: base + 8, bhi: base + 8, v: v}
	i := sort.Search(len(t.globals), func(i int) bool { return t.globals[i].lo >= base })
	if i > 0 {
		prev := &t.globals[i-1]
		prev.bhi = min(prev.bhi, base)
		if prev.hi > base {
			prev.hi = base
			prev.v.SizeBytes = int64(prev.hi - prev.lo)
		}
	}
	t.globals = append(t.globals[:i], append([]span{sp}, t.globals[i:]...)...)
	return v
}

// resolveLocal maps an address to a local variable's span without any
// global-footprint side effects; its v is nil when no span holds addr.
func (t *varTable) resolveLocal(addr uint64) resolution {
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > addr })
	if i < len(t.locals) && t.locals[i].lo <= addr {
		sp := &t.locals[i]
		return resolution{sp.v, sp.lo, sp.hi, t.gen, true}
	}
	return resolution{}
}

// resolveRef maps a referenced address — a pointer argument — to its
// owning variable, or nil, without growing any footprint: footprints
// record observed element accesses (Load/Store, lookup with access set).
func (t *varTable) resolveRef(addr uint64) *VarInfo {
	return t.lookup(addr, false).v
}

// lookup resolves addr, growing a global's footprint to it when access is
// set; its v is nil when addr belongs to no variable.
func (t *varTable) lookup(addr uint64, access bool) resolution {
	// Locals: exact span containment.
	i := sort.Search(len(t.locals), func(i int) bool { return t.locals[i].hi > addr })
	if i < len(t.locals) && t.locals[i].lo <= addr {
		sp := &t.locals[i]
		return resolution{sp.v, sp.lo, sp.hi, t.gen, true}
	}
	// Globals: greatest base <= addr, bounded by the next global's base.
	j := sort.Search(len(t.globals), func(i int) bool { return t.globals[i].lo > addr })
	if j == 0 {
		return resolution{}
	}
	g := &t.globals[j-1]
	if j < len(t.globals) && addr >= t.globals[j].lo {
		return resolution{} // inside the next global's territory (defensive; unreachable)
	}
	if access && addr >= g.bhi {
		// A global's size is always hi - lo: it starts at 8 bytes and moves
		// only with hi.
		g.bhi = addr + 8
		if !t.fork {
			g.hi = g.bhi
			g.v.SizeBytes = int64(g.hi - g.lo)
		}
	}
	// The range: the global's, less what the next global and the local
	// spans on either side of addr hold.
	lo, hi := g.lo, g.bhi
	if j < len(t.globals) {
		hi = min(hi, t.globals[j].lo)
	}
	if i > 0 {
		lo = max(lo, t.locals[i-1].hi)
	}
	if i < len(t.locals) {
		hi = min(hi, t.locals[i].lo)
	}
	t.glo, t.ghi = min(t.glo, lo), max(t.ghi, hi)
	return resolution{g.v, lo, hi, t.gen, false}
}

// lookupLocal finds the (latest) local with the given name in the given
// function.
func (t *varTable) lookupLocal(fn, name string) *VarInfo {
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
