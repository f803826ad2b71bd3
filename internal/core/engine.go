package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// This file is the single incremental analysis core that every mode of
// AutoCheck adapts to. The pipeline of the paper's Fig. 2 is expressed
// once, as the Engine's region state machine plus one fused pass over
// classified records (analyzer.fusedStep). Per record the pass makes one
// dispatch, on the step its static half's shape resolved once, and that
// step runs, in trace order, the record's address→variable table
// maintenance, module 1 (MLI collection, §IV-A), module 2 (on-the-fly
// dependency tracking, §IV-B) and — with Options.BuildDDG — the complete
// DDG of Fig. 5. Module 3 (§IV-C) consumes no records: analyzer.finish
// classifies from the accumulated summaries.
//
// Every entry point is the Engine fed through ObserveBatch; they differ
// only in where the records come from:
//
//   - Analyze hands it the caller's records as one batch;
//   - AnalyzeBytes and AnalyzeFile hand it the decoder's records one per
//     call, with their template ids (trace.Reader.ReadInto): each one
//     written in place into its trace.Template, or decoded field by field
//     into the decoder's loose record, so no []Record is materialized and
//     no record copied (analyze.go);
//   - online, the tracer's records, one per call and each written in
//     place into its instruction's template, and an ingest session's
//     records, decoded from each chunk as the trace bytes are, reach
//     ObserveBatch directly, with their template ids;
//   - AnalyzeMany (many.go) runs N independent engines concurrently over
//     distinct traces, one reusable scratch bundle per worker.

// Region classifies one dynamic record relative to the main computation
// loop (the paper's trace partitioning, §IV-A).
type Region uint8

// Regions, in trace order.
const (
	RegionBefore Region = iota // region A: before the loop's dynamic extent
	RegionLoop                 // region B: inside the loop
	RegionAfter                // region C: after the loop
)

func (r Region) String() string {
	switch r {
	case RegionBefore:
		return "A"
	case RegionLoop:
		return "B"
	default:
		return "C"
	}
}

// NoLoopError reports a LoopSpec that matched nothing: the whole trace
// was scanned without one record of the loop function at a line inside
// the MCLR, so there is no region B to analyze.
type NoLoopError struct {
	Spec    LoopSpec
	Records int // records scanned before giving up
}

func (e *NoLoopError) Error() string {
	return fmt.Sprintf("core: no trace records for function %q lines %d-%d in %d records scanned (wrong main-loop location?)",
		e.Spec.Function, e.Spec.StartLine, e.Spec.EndLine, e.Records)
}

// ---- The fused pass ----

// fusedStep is the fused pass over one record: one dispatch on the step
// its shape resolved (newShape), whose case runs, in trace order, that
// kind's storage upkeep (access, Alloca spans), MLI collection (module 1),
// register-map update (module 2) and, in region B, Read/Write summaries
// and DDG growth (depend.go). MLI membership is incomplete while the pass
// runs, so summaries are kept for every variable and intersected with the
// MLI set in finish. Region C never reaches it: a record after the loop's
// last record is stepped as region B inside a fork (see below), whose
// rollback leaves what region C would have.
func (a *analyzer) fusedStep(r *trace.Record, sh *shape, reg Region) {
	loop := reg == RegionLoop
	switch sh.step {
	case stepAlloca:
		if res := r.Result; res.Value.Kind == trace.KindPtr {
			a.vt.addAlloca(res.Name, r.Func, res.Value.Addr(), int64(res.Size/8), r.DynID)
			a.growVars()
		}
		linkSources(sh)
	case stepLoad:
		addr, v, ok := a.access(r, sh)
		a.collect(r, sh, v, reg)
		if ok && sh.res != nil {
			sh.res.v, sh.res.srcs = v, nil
		}
		if loop && v != nil {
			a.loopLoad(r, sh, addr, v)
		}
	case stepStore:
		addr, v, _ := a.access(r, sh)
		a.collect(r, sh, v, reg)
		linkSources(sh) // a Store with a result links it like arithmetic
		if loop && v != nil {
			a.loopStore(r, sh, addr, v)
		}
	case stepRef:
		a.access(r, sh)
		if sh.res != nil {
			a.mapRef(r, sh)
		}
	case stepArith:
		linkSources(sh)
		if loop {
			a.ddgArith(r, sh)
		}
	case stepCmp:
		linkSources(sh)
		if loop && sh.loopFn {
			// Induction signal: comparisons at depth 0 over loop-function
			// locals. Outside it a comparison has no signal and no vertex.
			for _, e := range sh.srcs {
				if e.v != nil && e.v.Fn == a.spec.Function {
					a.summary(e.v).cmpUses++
				}
			}
			a.ddgArith(r, sh)
		}
	case stepParams:
		a.correlate(r, sh)
		if loop {
			a.ddgArith(r, sh)
		}
	}
}

// ---- The fork ----
//
// Region B spans from the first to the last record of the loop function
// at a line inside the MCLR, and the last one cannot be recognized
// without lookahead: a callee excursion or the loop's back edge looks
// just like the loop's exit until the MCLR is (or is never) re-entered.
// So once the loop has started, a record outside the MCLR opens a fork:
// it and the rest of its run are stepped as region B at once, and the
// pass logs what it needs to take that back —
//
//   - the first time the run changes a variable's slot — its MLI match,
//     its summary, its DDG vertex — the slot as it was (undoEntry);
//   - global-footprint growth is held aside in the table (varTable.fork);
//   - the graph journals what it adds (ddg.Graph.Mark);
//   - region C's only signal, each variable's first read after the loop,
//     goes to the slot's entry, and so does the first request for its
//     vertex by a Call's parameter correlation, which region C makes too.
//
// The next in-MCLR record proves the run was an excursion inside the
// loop: commit drops the log and applies the held growth. The end of the
// stream proves it was the loop's exit: rollback restores the logged
// state, creates the vertices region C asked for in region C's order, and
// applies the first reads — which leaves the state region C would have
// left, because nothing else region B does is read again once the stream
// has ended: register rows and the written-element sets are read only by
// later region-B work, and a FirstLine the run set belongs to an instance
// the run matched first, which the restored match is not. Memory is the
// variables a run touches, never the records it spans.

// undoEntry is one variable slot as it stood before the open run first
// changed it, plus the run's region-C view of the variable.
type undoEntry struct {
	slot int
	mli  *VarInfo
	sum  *varSummary // nil: the run created the summary
	val  varSummary  // *sum before the run
	node *ddg.Node
	// after is the instance of the variable's first read in the run, at
	// dynamic id afterDyn; nil if the run never read it.
	after    *VarInfo
	afterDyn int64
	called   bool // a Call's parameter correlation asked for its vertex
}

// openFork starts an undecided run.
func (a *analyzer) openFork() {
	a.fork = true
	a.gen++
	a.vt.fork = true
	if a.graph != nil {
		a.graph.Mark()
	}
}

// touch logs slot's state the first time the open run changes it and
// returns its entry; outside a fork it returns nil.
func (a *analyzer) touch(slot int) *undoEntry {
	if !a.fork {
		return nil
	}
	st := &a.vars[slot]
	if st.gen != a.gen {
		st.gen, st.undo = a.gen, len(a.undo)
		u := undoEntry{slot: slot, mli: st.mli, sum: st.sum, node: st.node}
		if st.sum != nil {
			u.val = *st.sum
		}
		a.undo = append(a.undo, u)
	}
	return &a.undo[st.undo]
}

// commit decides the open run as region B: everything it did stands.
func (a *analyzer) commit() {
	a.fork = false
	a.undo, a.calls = a.undo[:0], a.calls[:0]
	a.vt.commit()
	if a.graph != nil {
		a.graph.Commit()
	}
}

// rollback decides the open run, if any, as region C; see above.
func (a *analyzer) rollback() {
	if !a.fork {
		return
	}
	a.fork = false
	if a.graph != nil {
		a.graph.Rollback()
	}
	for i := range a.undo {
		u := &a.undo[i]
		st := &a.vars[u.slot]
		st.mli, st.sum, st.node = u.mli, u.sum, u.node
		if u.sum != nil {
			*u.sum = u.val
		}
		if u.after != nil {
			s := a.summary(u.after)
			s.readAfterLoop, s.afterDyn = true, u.afterDyn
		}
	}
	for _, v := range a.calls {
		a.nodeOf(v)
	}
}

// finish completes the analysis once the last record has been stepped:
// the MLI set (module 1's output), the graphs when BuildDDG built them,
// and module 3 — classification from the accumulated summaries plus the
// outermost loop's induction variable. The graph work is booked to
// Timing.Dep with the pass that grew the graph, identification to
// Timing.Identify.
func (a *analyzer) finish(res *Result) {
	res.MLI = a.mliList()
	if a.graph != nil {
		// Variable vertices were created while MLI membership was still
		// open (see nodeOf); their kinds are stamped now that it is final,
		// and Algorithm 1 contracts to them.
		t0 := time.Now()
		for i := range a.vars {
			if st := &a.vars[i]; st.mli != nil && st.node != nil {
				st.node.Kind = ddg.KindMLI
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

// ---- The engine ----

// Engine is the incremental core that every entry point runs — the
// paper's §IX online mode, where analysis runs inside the instrumentation
// itself, and the offline entry points alike. Records are observed as
// they are produced or decoded, through ObserveBatch: the tracer
// (interp.Machine.TraceInto) and the decoders of a text or ACTB trace,
// offline or in an ingest session (trace.Reader.ReadInto), hand it
// each record and its template id as they emit or decode it, written in
// place; Analyze hands it the caller's records as one batch, and Observe
// is the one-record case. No trace is materialized and no record is
// revisited or copied. How a stream is cut into calls never changes the
// result.
type Engine struct {
	spec   LoopSpec
	a      *analyzer
	inLoop bool   // region B entered
	counts [3]int // decided records per region
	run    int    // records of the open fork's run
	one    [1]trace.Record
	start  time.Time
	clock  depClock
	dep    time.Duration // time inside ObserveBatch, when feed booked it
}

// NewEngine prepares an analysis session. Every option applies, so the
// error is always nil; the signature is kept for its callers.
func NewEngine(spec LoopSpec, opts Options) (*Engine, error) {
	e := &Engine{}
	e.reset(spec, opts)
	return e, nil
}

// reset readies e for a fresh trace, keeping its analyzer's storage.
func (e *Engine) reset(spec LoopSpec, opts Options) {
	a := e.a
	if a == nil {
		a = newAnalyzer(spec, opts)
	} else {
		a.reset(spec, opts)
	}
	*e = Engine{spec: spec, a: a, start: time.Now()}
}

// ObserveBatch consumes a run of consecutive dynamic instruction records
// — a tracer's one record, a decoded chunk of a trace — with each
// record's template id, ids[i] being recs[i]'s
// (trace.RecordBatch.TemplateIDs). The records, with their Ops and Result
// storage, need only stay valid for the duration of the call (the
// contract of trace.Sink: the tracer and the decoders rewrite a record in
// place at its template's next record): the engine keeps nothing of them
// and writes nothing into them.
//
// The engine resolves a static half's register rows, MCLR membership and
// access operand once, into a shape, and every later record with it
// indexes them instead of hashing register names; the shape also keeps
// what its access last resolved to, so a record whose address falls in
// the same variable skips the address search (see resolution). A record
// finds its shape by its id; ids must name the same static halves for the
// whole session — they do when one producer, one machine or one decoder
// (text or ACTB), feeds it. A record with id trace.NoTemplate, and every
// record when ids is shorter than recs (nil, or none from the version-1
// decoder), finds it by its static half instead (keyed.go).
func (e *Engine) ObserveBatch(recs []trace.Record, ids []uint32) {
	a := e.a
	if len(ids) < len(recs) {
		ids = nil
	}
	for k := range recs {
		r := &recs[k]
		id := trace.NoTemplate
		if ids != nil {
			id = ids[k]
		}
		sh := a.shapeOf(id, r)
		switch {
		case sh.loop:
			if a.fork {
				a.commit()
				e.counts[RegionLoop] += e.run
				e.run = 0
			}
			e.inLoop = true
			e.counts[RegionLoop]++
			a.fusedStep(r, sh, RegionLoop)
		case e.inLoop:
			if !a.fork {
				a.openFork()
			}
			e.run++
			a.fusedStep(r, sh, RegionLoop)
		default:
			e.counts[RegionBefore]++
			a.fusedStep(r, sh, RegionBefore)
		}
	}
}

// Observe consumes one dynamic instruction record: ObserveBatch of one.
// The header is copied into the engine; Ops and Result still alias the
// caller's storage, which the contract keeps valid for the call.
func (e *Engine) Observe(r *trace.Record) {
	e.one[0] = *r
	e.ObserveBatch(e.one[:], nil)
}

// feed is ObserveBatch with its time booked to Timing.Dep, by sampling
// (see Timing). What the sweep spends outside it is the decode,
// Timing.Pre.
func (e *Engine) feed(recs []trace.Record, ids []uint32) {
	c := &e.clock
	if c.calls++; c.calls > exactCalls {
		c.rest += len(recs)
		if c.skip > 0 {
			c.skip--
			e.ObserveBatch(recs, ids)
			return
		}
	}
	t := time.Now()
	e.ObserveBatch(recs, ids)
	d := max(time.Since(t)-clockCost(), 0)
	if c.calls <= exactCalls {
		c.exact += d
		return
	}
	c.sampled += min(d, c.exact/exactCalls*time.Duration(len(recs)))
	c.timed += len(recs)
	c.state = c.state*1664525 + 1013904223 // Numerical Recipes' LCG
	c.skip = 47 + int(c.state>>27)
}

// exactCalls is how many of a session's first calls feed times each.
const exactCalls = 256

// depClock is feed's account of the time inside ObserveBatch.
type depClock struct {
	exact, sampled time.Duration // inside the first calls; inside the later timed ones
	calls          int           // calls fed
	rest, timed    int           // records of the later calls; of the timed ones among them
	skip           int           // calls before the next timed one
	state          uint32        // the stride generator's state
}

// clockCost is the median time.Since of an empty span: what timing a call
// adds to its time.
var clockCost = sync.OnceValue(func() time.Duration {
	var d [63]time.Duration
	for i := range d {
		t := time.Now()
		d[i] = time.Since(t)
	}
	slices.Sort(d[:])
	return d[len(d)/2]
})

// result finishes a session that feed drove, booking the time the sweep
// spent outside the pass to Timing.Pre.
func (e *Engine) result() (*Result, error) {
	sweep, c := time.Since(e.start), &e.clock
	e.dep = c.exact
	if c.timed > 0 {
		e.dep += time.Duration(float64(c.sampled) * float64(c.rest) / float64(c.timed))
	}
	e.dep = min(e.dep, sweep)
	res, err := e.Finish()
	if err != nil {
		return nil, err
	}
	res.Timing.Pre = sweep - e.dep
	return res, nil
}

// Finish resolves the trailing records as region C, completes the
// analysis, and returns the result. Call it exactly once, after the last
// Observe. With Options.Obs the session's total and the identification
// step are recorded here — once per session, never per record, so
// Observe's hot path carries no telemetry cost when disabled or enabled.
func (e *Engine) Finish() (*Result, error) {
	if !e.inLoop {
		return nil, &NoLoopError{Spec: e.spec, Records: e.counts[RegionBefore]}
	}
	t0 := time.Now()
	e.a.rollback()
	e.counts[RegionAfter], e.run = e.run, 0
	res := &Result{Spec: e.spec, Stats: Stats{
		Records: e.counts[0] + e.counts[1] + e.counts[2],
		RegionA: e.counts[RegionBefore],
		RegionB: e.counts[RegionLoop],
		RegionC: e.counts[RegionAfter],
	}}
	res.Timing.Dep = e.dep + time.Since(t0)
	e.a.finish(res)
	res.Timing.Total = time.Since(e.start)
	obsReg := e.a.opts.Obs
	obsReg.Histogram("core.engine.sweep.ns").Observe(res.Timing.Total)
	obsReg.Counter("core.engine.records").Add(int64(res.Stats.Records))
	return res, nil
}

// scratch bundles the reusable state of one analysis: the engine, its
// analyzer's maps and variable table. One scratch serves any number of
// analyses sequentially; AnalyzeMany keeps one per worker so concurrent
// engines stop hammering the shared allocator.
type scratch struct {
	e Engine
}

// engine returns the bundle's engine readied for a fresh trace.
func (sc *scratch) engine(spec LoopSpec, opts Options) *Engine {
	sc.e.reset(spec, opts)
	return &sc.e
}
