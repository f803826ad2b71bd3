package core

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"autocheck/internal/ddg"
	"autocheck/internal/ir"
	"autocheck/internal/obs"
	"autocheck/internal/trace"
)

// LoopSpec locates the main computation loop (the paper's MCLR input):
// the enclosing function plus the loop's start and end source lines.
type LoopSpec struct {
	Function  string
	StartLine int
	EndLine   int
}

// contains reports whether r is a record of the loop function at a line
// inside the MCLR — what the engine partitions the trace by.
func (s LoopSpec) contains(r *trace.Record) bool {
	return r.Func == s.Function && r.Line >= s.StartLine && r.Line <= s.EndLine
}

// Options tunes the analysis.
type Options struct {
	// IncludeGlobals collects global variables referenced inside function
	// calls when identifying MLI variables. This automates the paper's
	// manual FT workaround (§V-B Challenge 1): the paper bypasses callee
	// bodies, losing globals used only there; we can keep them because
	// globals are identified by name and address, never confusable with a
	// callee's locals.
	IncludeGlobals bool
	// Streaming has no effect: AnalyzeFile always streams the file from
	// disk, and no entry point materializes a []Record.
	//
	// Deprecated: every analysis streams.
	Streaming bool
	// BuildDDG additionally constructs the complete and contracted
	// dependency graphs (Fig. 5(c)/(d)) inside the same pass, offline and
	// online. Intended for small traces, reports and visualization: the
	// complete graph holds a vertex per dynamic register instance, so
	// memory is O(records); classification itself streams.
	BuildDDG bool
	// Module, when available, enables exact induction-variable
	// identification via loop analysis (the paper's llvm-pass-loop API).
	// Without it a trace-based heuristic is used.
	Module *ir.Module
	// Obs, when non-nil, receives per-analysis timing histograms and a
	// record counter ("core.engine.sweep.ns", "core.identify.ns",
	// "core.engine.records"). Recording happens once per analysis, never
	// per record, so the hot paths are untouched either way.
	Obs *obs.Registry
	// Explain additionally fills Result.Provenance: one entry per MLI
	// variable describing the accumulated signals and the rule that did
	// (or did not) classify it. Classification itself is unaffected.
	Explain bool
}

// DefaultOptions returns the recommended configuration.
func DefaultOptions() Options { return Options{IncludeGlobals: true} }

// DependencyType classifies why a variable must be checkpointed (§IV-C).
type DependencyType int

// Dependency types.
const (
	WAR     DependencyType = iota // Write-After-Read across iterations
	Outcome                       // main-loop output read after the loop
	RAPO                          // Read-After-Partially-Overwritten array
	Index                         // induction variable of the outermost loop
)

func (d DependencyType) String() string {
	switch d {
	case WAR:
		return "WAR"
	case Outcome:
		return "Outcome"
	case RAPO:
		return "RAPO"
	default:
		return "Index"
	}
}

// CriticalVar is one variable AutoCheck says must be checkpointed.
type CriticalVar struct {
	Name      string
	Fn        string // declaring function; "" for globals
	Base      uint64
	SizeBytes int64
	Type      DependencyType
}

// Timing is the per-phase cost breakdown reported in Table III. Over
// trace bytes the decoder hands the engine one record per call, and two
// clock reads per call would cost as much as the record's analysis, so
// Dep is sampled: each of the first 256 calls is timed, where most of a
// trace's static halves are first seen and resolved, and after them one
// call in about 64, each timed call followed by 47 to 78 untimed ones
// drawn by a fixed-seed generator, so that a loop whose body is a divisor
// or a multiple of 64 records does not time the same instruction each
// time. The later calls' time is their timed calls' time per record times
// their records; the clock reads' own median cost is taken off each timed
// call, and a timed call is booked at most at the first calls' mean, so a
// collection or a preemption it met is not booked some 64 times over. Dep
// is at most the sweep's time, and Pre is the rest of it.
//
// With a second P a text trace is decoded ahead of the engine, on a
// goroutine of its own, and the two overlap. Dep is then the time the
// engine's goroutine spent in the pass, and Pre the rest of the sweep's
// wall time on it: the waits for decoded records and their unpacking from
// the ring, not the decode's own CPU time, most of which the pass hides.
// Pre + Dep + Identify still adds up to Total.
type Timing struct {
	Pre      time.Duration // trace reading (the wait for it, when decoded ahead) + MLI identification
	Dep      time.Duration // data dependency analysis
	Identify time.Duration // critical-variable identification
	Total    time.Duration
}

// Stats summarizes the analyzed trace.
type Stats struct {
	Records    int
	TraceBytes int64
	RegionA    int // records before the main loop
	RegionB    int // records inside the main loop
	RegionC    int // records after the main loop
}

// Result is the analysis output.
type Result struct {
	Spec     LoopSpec
	MLI      []*VarInfo
	Critical []CriticalVar
	// Provenance is only set with Options.Explain: one entry per MLI (and
	// induction) variable, in classification order first, then the
	// variables no rule matched.
	Provenance []Provenance
	// Contracted and Complete are only set with Options.BuildDDG.
	Contracted *ddg.Graph
	Complete   *ddg.Graph
	Timing     Timing
	Stats      Stats
}

// Provenance explains one variable's classification decision: the signals
// module 2 accumulated while streaming the trace and the §IV-C rule module
// 3 applied to them. Both identify and explain derive from the same
// classifySummary call, so a printed trail can never disagree with the
// critical-variable list.
type Provenance struct {
	Name     string
	Fn       string // declaring function; "" for globals
	Critical bool
	Type     DependencyType // meaningful only when Critical
	Rule     string         // the decision, in words
	// Region-B signals (dependency pass).
	FirstAccess   string // "read", "write", or "none"
	FirstDyn      int64  // dynamic id of the first region-B access, -1 if none
	Reads, Writes int64
	UncoveredRead bool  // read an array element never written earlier in B
	UncoveredDyn  int64 // dynamic id of the first such read, -1 if none
	// Region-C signal.
	ReadAfterLoop bool
	AfterLoopDyn  int64 // dynamic id of the first region-C read, -1 if none
	// Induction signals.
	SelfUpdates int64 // stores of v computed from v
	CmpUses     int64 // loads of v feeding comparisons
}

// CriticalNames returns the sorted names of the critical variables.
func (r *Result) CriticalNames() []string {
	out := make([]string, len(r.Critical))
	for i, c := range r.Critical {
		out[i] = c.Name
	}
	sort.Strings(out)
	return out
}

// Find returns the critical entry with the given name, or nil.
func (r *Result) Find(name string) *CriticalVar {
	for i := range r.Critical {
		if r.Critical[i].Name == name {
			return &r.Critical[i]
		}
	}
	return nil
}

// AnalyzeFile reads a trace file produced by the tracer (or by LLVM-Tracer
// with compatible encoding, text or binary) and analyzes it. This is the
// paper's primary usage mode: trace generation and analysis as separate
// steps. The file is streamed from disk through a bounded window, so
// memory does not grow with it, and a single record (one text block or
// one binary record) beyond 4 MiB is an error naming its byte offset;
// AnalyzeBytes has no such cap.
func AnalyzeFile(path string, spec LoopSpec, opts Options) (*Result, error) {
	return analyzeFileIn(&scratch{}, path, spec, opts)
}

func analyzeFileIn(sc *scratch, path string, spec LoopSpec, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading trace: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: reading trace: %w", err)
	}
	rd, format, err := trace.NewAutoReader(f)
	if err != nil {
		return nil, err
	}
	res, err := sc.analyze(rd, format, spec, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.TraceBytes = st.Size()
	return res, nil
}

// AnalyzeBytes analyzes an in-memory trace — text or binary, detected by
// magic — each record handed to the engine as it is decoded: an ACTB
// record in place, a text one, with a second P, after it crosses the
// read-ahead ring from the decoder's goroutine (readahead.go). No
// []Record is materialized and no record size is capped.
func AnalyzeBytes(data []byte, spec LoopSpec, opts Options) (*Result, error) {
	return analyzeBytesIn(&scratch{}, data, spec, opts)
}

func analyzeBytesIn(sc *scratch, data []byte, spec LoopSpec, opts Options) (*Result, error) {
	rd, format, err := trace.NewBytesReader(data)
	if err != nil {
		return nil, err
	}
	res, err := sc.analyze(rd, format, spec, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.TraceBytes = int64(len(data))
	return res, nil
}

// Analyze runs the three-module pipeline over parsed records: the engine
// fed the records as one batch.
func Analyze(recs []trace.Record, spec LoopSpec, opts Options) (*Result, error) {
	return analyzeRecordsIn(&scratch{}, recs, spec, opts)
}

func analyzeRecordsIn(sc *scratch, recs []trace.Record, spec LoopSpec, opts Options) (*Result, error) {
	e := sc.engine(spec, opts)
	e.feed(recs, nil)
	return e.result()
}

// analyze is the trace-bytes schedule: the bundle's engine fed each of
// rd's records, to the end of the stream. An ACTB trace's records are fed
// in place as they are decoded; a text trace is decoded ahead of the
// engine, on a goroutine of its own (readahead.go), when there is a
// second P to run it on — with one, the hand-over costs more than it
// hides, and the text trace is read like an ACTB one. A decode error
// anywhere in the trace is reported before a missing loop.
func (sc *scratch) analyze(rd trace.Reader, format trace.Format, spec LoopSpec, opts Options) (*Result, error) {
	e := sc.engine(spec, opts)
	var err error
	if format == trace.FormatText && runtime.GOMAXPROCS(0) > 1 {
		ra := rings.Get().(*readAhead)
		err = ra.run(rd, e.feed)
		rings.Put(ra)
	} else {
		err = rd.ReadInto(e.feed)
	}
	if err != nil {
		return nil, err
	}
	return e.result()
}

// regKey names a register within a function (registers are
// function-scoped; the on-the-fly map update resolves reuse across
// iterations and calls, §IV-B "Mutable-register").
type regKey struct {
	fn  string
	reg string
}

// varSummary accumulates the per-variable signals that identification
// needs, streamed in execution order so no event list is materialized.
type varSummary struct {
	v             *VarInfo
	firstIsRead   bool
	haveFirst     bool
	reads, writes int64
	written       map[uint64]bool // element addresses written in region B, until uncoveredRead
	uncoveredRead bool            // read an element not yet written in B
	readAfterLoop bool            // read in region C
	selfUpdate    int64           // stores of v computed from v (induction signal)
	cmpUses       int64           // loads of v feeding comparisons (induction signal)
	// Provenance captures: the dynamic ids where the decisive signals
	// first fired. Set once inside branches the pass takes anyway, so
	// they cost nothing when Explain is off.
	firstDyn     int64 // first region-B access
	uncoveredDyn int64 // first uncovered read
	afterDyn     int64 // first region-C read
}

// regEntry is one register's row of the register table: the paper's
// reg-var entry (v; nil when the register refers to no variable) and
// reg-reg entry (srcs, the rows of the registers it was computed from;
// empty when none), plus, with BuildDDG, the DDG vertex of its latest
// dynamic instance. srcs is a shape's sources, shared and read-only (see
// linkSources).
type regEntry struct {
	v    *VarInfo
	srcs []*regEntry
	node *ddg.Node
}

// shape is what the fused pass needs of a record's static half, resolved
// once, from the first record with it (newShape): the step it runs, the
// rows of its registers, whether it lies in the MCLR, and where its
// operands are. A record finds its shape by its template id (see
// trace.RecordBatch.TemplateIDs) or, without one, by its static half
// (keyed.go), and every step of the pass indexes it.
type shape struct {
	step   step        // what a record of the shape does (fusedStep)
	loop   bool        // spec.contains: in the loop function, inside the MCLR
	loopFn bool        // in the loop function
	res    *regEntry   // the result's row; nil without a result
	rows   []*regEntry // per input operand, its register's row (a parameter's in the callee); nil for a non-register
	srcs   []*regEntry // linkSources' sources: the rows of the register inputs with Index > 0, in order
	params []param     // a form-2 Call's parameters, in operand order
	acc    int         // the position in Ops of a Load's or Store's pointer or a GEP's base; -1 if none
	val    int         // the position in Ops of operand 1 — a Store's value, a GEP's or BitCast's base — when a register; -1 if not
	named  bool        // the acc operand has a name that is not a number
	at     resolution  // what the acc operand's address last resolved to (see access)
	ref    resolution  // what a GEP's or BitCast's result address last resolved to
}

// step is the kind of work a record does in the fused pass. It is a
// function of the static half's key (keyed.go): the opcode, whether there
// is a result, and, for a Call, whether any operand is a parameter.
type step uint8

const (
	stepNone   step = iota // nothing: a record with no result, e.g. a branch
	stepAlloca             // an Alloca with a result: a local's span
	stepLoad               // a Load: an access, a read
	stepStore              // a Store: an access, a write
	stepRef                // a GEP or BitCast: a computed reference, not data flow
	stepArith              // a value computed from its register inputs (form-1 Calls too)
	stepCmp                // a comparison: arithmetic, and in the loop function an induction signal
	stepParams             // a form-2 Call: parameter correlation
)

// param is one parameter operand of a form-2 Call: its position in Ops
// and that of the argument it correlates with, -1 if the record has none.
type param struct{ at, arg int }

// varState is one variable identity's slot (see varTable): the
// instance that made it a region-A candidate and the one that matched
// it in region B — both the latest — and its summary, which keeps the
// first instance it saw (s.v). With BuildDDG, node is its vertex. While
// a fork is open, gen says whether the run logged the slot, at
// analyzer.undo[undo] (engine.go).
type varState struct {
	inA, mli *VarInfo
	sum      *varSummary
	node     *ddg.Node
	gen      uint32
	undo     int
}

type analyzer struct {
	spec LoopSpec
	opts Options

	vt    *varTable
	vars  []varState           // indexed by VarInfo.slot
	regs  map[regKey]*regEntry // names a row when a shape is resolved
	slab  []regEntry           // unused rows, handed out by reg
	graph *ddg.Graph

	// The shapes of the templates seen so far, indexed by template id;
	// those of the static halves of records without one (keyed.go); and
	// the slabs they and their lists are cut from.
	shapes    []*shape
	recent    *[1 << recentBits]*keyed
	chains    map[head]*keyed
	shapeSlab []shape
	rowSlab   []*regEntry
	paramSlab []param
	keyedSlab []keyed
	opSlab    []trace.Operand

	// The open fork (engine.go): the run's generation, its undo log, and
	// the variables whose vertices a Call asked for, in the order it asked.
	fork  bool
	gen   uint32
	undo  []undoEntry
	calls []*VarInfo
}

// regSlab is how many rows reg allocates at once. A port has a few
// hundred registers, and a row each added 15-40 % to a port's analysis
// allocations: from slabs, the table allocates no more than the maps it
// replaced. Shapes and their row and source lists come from slabs of
// listSlab (cut) for the same reason: a port has a few hundred templates.
const (
	regSlab  = 128
	listSlab = 512
)

func newAnalyzer(spec LoopSpec, opts Options) *analyzer {
	a := &analyzer{}
	a.reset(spec, opts)
	return a
}

// reset reconfigures the analyzer for a fresh trace, keeping its
// allocated map and table storage. This is what makes one scratch bundle
// serve many analyses (AnalyzeMany's per-worker reuse): a reset analyzer
// behaves exactly like a new one, and the VarInfo/summary objects a
// previous Result retained are never mutated afterwards.
func (a *analyzer) reset(spec LoopSpec, opts Options) {
	a.spec = spec
	a.opts = opts
	if a.vt == nil {
		a.vt = newVarTable()
		a.regs = make(map[regKey]*regEntry)
		a.chains = make(map[head]*keyed)
	} else {
		a.vt.reset()
		clear(a.vars)
		a.vars = a.vars[:0]
		clear(a.regs)
		clear(a.shapes)
		a.shapes = a.shapes[:0]
		clear(a.chains)
		if a.recent != nil {
			clear(a.recent[:])
		}
	}
	a.fork = false
	a.undo, a.calls = a.undo[:0], a.calls[:0]
	a.graph = nil
	if opts.BuildDDG {
		// The graph is handed to the Result, so a reset builds a fresh one.
		a.graph = ddg.New()
	}
}

// reg returns key's row, adding an empty one if the register is new.
func (a *analyzer) reg(key regKey) *regEntry {
	e := a.regs[key]
	if e == nil {
		if len(a.slab) == 0 {
			a.slab = make([]regEntry, regSlab)
		}
		e, a.slab = &a.slab[0], a.slab[1:]
		a.regs[key] = e
	}
	return e
}

// shapeOf returns the shape of r's static half: by template id, or, for
// a record with no template (trace.NoTemplate), by the static half itself
// (keyedShape). Once the session has keyed shapes, a new id's shape is
// looked up by r, the first record with the id, through keyedShape too,
// so each static half is resolved once however its records reach the
// engine.
func (a *analyzer) shapeOf(id uint32, r *trace.Record) *shape {
	if id == trace.NoTemplate {
		return a.keyedShape(r)
	}
	if int(id) >= len(a.shapes) {
		if int(id) >= cap(a.shapes) {
			a.shapes = slices.Grow(a.shapes, max(int(id)+1, 2*cap(a.shapes), 256)-len(a.shapes))
		}
		a.shapes = a.shapes[:id+1]
	}
	p := &a.shapes[id]
	switch {
	case *p != nil:
	case len(a.chains) > 0:
		// Through the key: a text template's first block, decoded before
		// its template was made, had no id, and the two share one shape.
		*p = a.keyedShape(r)
	default:
		*p = a.newShape(r)
	}
	return *p
}

// newShape resolves the shape of r's static half: its step, its rows,
// and the positions of the operands the step reads.
func (a *analyzer) newShape(r *trace.Record) *shape {
	sh := &cut(&a.shapeSlab, 1)[0]
	fn := r.Func
	*sh = shape{loop: a.spec.contains(r), loopFn: fn == a.spec.Function, acc: -1, val: operandPos(r, 1)}
	if sh.val >= 0 && !r.Ops[sh.val].IsReg {
		sh.val = -1
	}
	if r.Result != nil {
		sh.res = a.reg(regKey{fn, r.Result.Name})
	}
	callee := ""
	if op := r.Operand(0); op != nil {
		callee = op.Name
	}
	sh.rows = cut(&a.rowSlab, len(r.Ops))
	nsrc, nparam := 0, 0
	for i := range r.Ops {
		switch op := &r.Ops[i]; {
		case op.Index < 0:
			sh.rows[i] = a.reg(regKey{callee, op.Name})
			nparam++
		case op.IsReg:
			sh.rows[i] = a.reg(regKey{fn, op.Name})
			if op.Index > 0 {
				nsrc++
			}
		}
	}
	sh.srcs = cut(&a.rowSlab, nsrc)[:0]
	sh.params = cut(&a.paramSlab, nparam)[:0]
	for i := range r.Ops {
		switch op := &r.Ops[i]; {
		case op.Index > 0 && op.IsReg:
			sh.srcs = append(sh.srcs, sh.rows[i])
		case op.Index < 0:
			sh.params = append(sh.params, param{i, operandPos(r, -op.Index)})
		}
	}
	switch op := r.Opcode; {
	case op == trace.OpAlloca:
		if r.Result != nil {
			sh.step = stepAlloca
		}
	case op == trace.OpLoad:
		sh.step, sh.acc = stepLoad, operandPos(r, 1)
	case op == trace.OpStore:
		sh.step, sh.acc = stepStore, operandPos(r, 2)
	case op == trace.OpGetElementPtr:
		sh.step, sh.acc = stepRef, operandPos(r, 1)
	case op == trace.OpBitCast:
		sh.step = stepRef
	case op == trace.OpICmp || op == trace.OpFCmp:
		sh.step = stepCmp
	case op == trace.OpCall && nparam > 0:
		sh.step = stepParams
	case r.Result != nil:
		sh.step = stepArith
	}
	if sh.acc >= 0 {
		name := r.Ops[sh.acc].Name
		sh.named = name != "" && !isNumeric(name)
	}
	return sh
}

// cut returns n elements cut from the front of *slab, which a fresh slab
// replaces when it has not the room.
func cut[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, listSlab))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// operandPos returns the position in r.Ops of the operand with 1-based
// position idx, or -1.
func operandPos(r *trace.Record, idx int) int {
	for i := range r.Ops {
		if r.Ops[i].Index == idx {
			return i
		}
	}
	return -1
}

// access resolves the address of the record's access operand (shape.acc)
// and returns it with its variable, nil when it belongs to none; ok is
// false when the operand is missing or not a pointer. A Load or Store
// resolves as an access, growing a global's footprint; a GEP only
// discovers globals. Nothing later in the step changes the variable
// table, so each of the step's uses gets the variable its own resolve
// would have returned.
//
// A named, non-numeric operand that no local span owns is a global
// reference at its base address (global discovery). A record first asks
// its shape's last resolution (see resolution): when it holds the
// address, resolving again would find the same variable, grow no
// footprint and discover no global — a named operand that resolved to a
// global has been noted, and one that resolved to a local is in a span no
// global discovery looks past — so the record skips all three.
func (a *analyzer) access(r *trace.Record, sh *shape) (addr uint64, v *VarInfo, ok bool) {
	if sh.acc < 0 || r.Ops[sh.acc].Value.Kind != trace.KindPtr {
		return 0, nil, false
	}
	op := &r.Ops[sh.acc]
	addr = op.Value.Addr()
	if v := a.vt.at(&sh.at, addr); v != nil {
		return addr, v, true
	}
	ref := sh.step == stepRef
	var res resolution
	if sh.named {
		// This must not consult the footprint-growing resolver: the named
		// base is authoritative and truncates any neighbor whose estimated
		// footprint overgrew it.
		if res = a.vt.resolveLocal(addr); res.v == nil {
			a.vt.noteGlobal(op.Name, addr, r.DynID, r.Line)
			a.growVars()
			if ref {
				res = a.vt.lookup(addr, false)
			}
		}
	}
	if !ref && res.v == nil {
		// lookup finds a local by the search resolveLocal just made.
		res = a.vt.lookup(addr, true)
	}
	sh.at = res
	return addr, res.v, true
}

// growVars gives every slot the table has assigned its state.
func (a *analyzer) growVars() {
	for len(a.vars) < len(a.vt.slots) {
		a.vars = append(a.vars, varState{})
	}
}

// isNumeric reports whether s is an (optionally signed) decimal integer.
// Hand-rolled rather than strconv.Atoi, whose error return allocates on
// the non-numeric names that dominate real traces.
func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	i := 0
	if s[0] == '-' || s[0] == '+' {
		if len(s) == 1 {
			return false
		}
		i = 1
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// collect takes v, the variable a Load or Store accesses, into MLI
// collection (§IV-A) if the record participates: records executed in the
// loop function (call depth zero), plus — with IncludeGlobals — global
// accesses at any depth (the automated FT workaround, §V-B Challenge 1).
// Region A marks it a candidate; region B matches it against the
// candidates, and the intersection is the MLI set.
func (a *analyzer) collect(r *trace.Record, sh *shape, v *VarInfo, reg Region) {
	if v == nil || !sh.loopFn && !(a.opts.IncludeGlobals && v.Global) {
		return
	}
	if v.FirstLine < 0 {
		v.FirstLine = r.Line
	}
	switch st := &a.vars[v.slot]; {
	case reg == RegionBefore:
		st.inA = v
	case st.inA != nil && st.mli != v:
		a.touch(v.slot)
		st.mli = v
	}
}

func (a *analyzer) mliList() []*VarInfo {
	n := 0
	for i := range a.vars {
		if a.vars[i].mli != nil {
			n++
		}
	}
	out := make([]*VarInfo, 0, n)
	for i := range a.vars {
		if v := a.vars[i].mli; v != nil {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Base < out[j].Base
	})
	return out
}

// summary returns v's summary, creating it on first use, for the caller
// to update: inside a fork the slot is logged first.
func (a *analyzer) summary(v *VarInfo) *varSummary {
	a.touch(v.slot)
	st := &a.vars[v.slot]
	if st.sum == nil {
		st.sum = &varSummary{v: v, written: make(map[uint64]bool),
			firstDyn: -1, uncoveredDyn: -1, afterDyn: -1}
	}
	return st.sum
}
