package core

import (
	"fmt"
	"time"

	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// This file is the single incremental analysis core that every mode of
// AutoCheck adapts to. The pipeline of the paper's Fig. 2 is expressed
// once, as an explicit region state machine (partitioner) plus one fused
// pass over classified records (analyzer.step): per record, in trace
// order, address→variable table maintenance, module 1 (MLI collection,
// §IV-A), module 2 (on-the-fly dependency tracking, §IV-B) and — with
// Options.BuildDDG — the complete DDG of Fig. 5. Module 3 (§IV-C) consumes
// no records: analyzer.finish classifies from the accumulated summaries.
//
// The adapters differ only in how records reach the pass:
//
//   - Analyze (caller-owned records) and AnalyzeBytes / AnalyzeFile
//     (trace bytes, decoded into one recycled batch, never
//     materialized) run the offline schedule (analyzeScheduleIn): the
//     source locates the loop (source.extent: in place where it can be read
//     from both ends, else a header-only sweep), then the fused sweep runs
//     over the full decode, batched, so memory stays O(variables) whenever
//     the source's does.
//   - Engine is the single-sweep online configuration: the
//     scanPartitioner discovers the loop extent incrementally, a batch
//     at a time, and the same fused pass runs on a live record feed.
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

// The engine has two region state machines: spanPartitioner serves the
// offline schedule (the loop's dynamic extent is known from the partition
// sweep, so classification is a pure index comparison), and
// scanPartitioner serves the online engine (the extent is discovered
// incrementally from a live feed, with bounded lookahead buffering to
// stay exactly offline-equivalent).

// spanPartitioner classifies by the loop's dynamic extent [bStart, bEnd]
// of n records, as source.extent found it: every record inside that index
// interval is region B, including records of callees invoked from the loop.
type spanPartitioner struct {
	bStart, bEnd int
	n            int
}

func (p *spanPartitioner) classify(i int) Region {
	switch {
	case i < p.bStart:
		return RegionBefore
	case i <= p.bEnd:
		return RegionLoop
	default:
		return RegionAfter
	}
}

// runs cuts a batch whose first record has stream index base into its
// single-region runs — the extent is an index interval, so at most three
// — and emits them in order as sub-slices of recs.
func (p *spanPartitioner) runs(base int, recs []trace.Record, emit func([]trace.Record, Region)) {
	for len(recs) > 0 {
		reg, n := p.classify(base), len(recs)
		switch reg {
		case RegionBefore:
			n = min(n, p.bStart-base)
		case RegionLoop:
			n = min(n, p.bEnd+1-base)
		}
		emit(recs[:n], reg)
		recs, base = recs[n:], base+n
	}
}

func (p *spanPartitioner) stats() Stats {
	return Stats{
		Records: p.n,
		RegionA: p.bStart,
		RegionB: p.bEnd - p.bStart + 1,
		RegionC: p.n - p.bEnd - 1,
	}
}

func (p *spanPartitioner) sawLoop() bool { return p.bStart >= 0 }

// scanPartitioner discovers the regions incrementally and is exactly
// equivalent to the offline partition sweep: region B spans from the
// first to the last record of the loop function at a line inside the
// MCLR. The last such record cannot be recognized without lookahead —
// a callee excursion or the loop's back edge looks just like the loop's
// exit until the MCLR is (or is never) re-entered — so once the loop has
// started, records outside the MCLR park: the next in-MCLR record proves
// the loop continued and flushes them as region B, and the end of the
// stream resolves the final run as region C. Memory is therefore bounded
// by the longest single run of records away from the MCLR: one callee
// excursion during the loop, and — the trailing run — the entire program
// epilogue, which only flushes at Finish. Under the paper's model (the
// main computation loop dominates the program) the epilogue is a handful
// of records; a program that does most of its work after the loop pays
// O(post-loop records) here and should use the offline schedule instead.
// The exactness is what the parking buys: deferred records must be
// replayed with their full dependency context, so they cannot be
// processed eagerly without diverging from offline map/storage state at
// their position.
type scanPartitioner struct {
	spec   LoopSpec
	inLoop bool // region B entered
	parked parkArena
	counts [3]int
}

// observe classifies one batch in a single pass and emits, in trace
// order, every run of records whose region the batch resolves. An
// in-MCLR record anywhere in the batch decides everything before it: the
// parked records were an excursion inside the loop (region B), and so is
// every record of the batch between the loop's start and the batch's last
// in-MCLR record — those go to emit as sub-slices of recs, never copied.
// Only the tail after that record is undecided, and parks.
func (p *scanPartitioner) observe(recs []trace.Record, emit func([]trace.Record, Region)) {
	first, last := -1, -1
	for k := range recs {
		if p.spec.contains(&recs[k]) {
			if first < 0 {
				first = k
			}
			last = k
		}
	}
	switch {
	case last >= 0:
		decided := recs[:last+1]
		if p.inLoop {
			p.flush(RegionLoop, emit)
		} else {
			p.inLoop = true
			p.emit(decided[:first], RegionBefore, emit)
			decided = decided[first:]
		}
		p.emit(decided, RegionLoop, emit)
		p.parked.add(recs[last+1:])
	case p.inLoop:
		p.parked.add(recs)
	default:
		p.emit(recs, RegionBefore, emit)
	}
}

// finish resolves the trailing parked run: no later record re-entered
// the MCLR, so it was the loop's exit and the records are region C.
func (p *scanPartitioner) finish(emit func([]trace.Record, Region)) {
	p.flush(RegionAfter, emit)
}

// flush emits the parked records chunk by chunk. The pass never retains
// record pointers past a step, so the chunks are free for reuse the
// moment the flush ends.
func (p *scanPartitioner) flush(reg Region, emit func([]trace.Record, Region)) {
	for _, c := range p.parked.chunks[:p.parked.used] {
		p.emit(c.recs, reg, emit)
	}
	p.parked.reset()
}

func (p *scanPartitioner) emit(recs []trace.Record, reg Region, emit func([]trace.Record, Region)) {
	if len(recs) == 0 {
		return
	}
	p.counts[reg] += len(recs)
	emit(recs, reg)
}

func (p *scanPartitioner) stats() Stats {
	return Stats{
		Records: p.counts[0] + p.counts[1] + p.counts[2],
		RegionA: p.counts[0],
		RegionB: p.counts[1],
		RegionC: p.counts[2],
	}
}

func (p *scanPartitioner) sawLoop() bool { return p.inLoop }

// parkArena holds the records whose region is undecided. The caller may
// reuse its record and operand storage between Observe calls (the
// Observer contract says it will), and parked records outlive the call,
// so parking deep-copies — into fixed-size chunks, each a record slice
// plus the operand arena backing those records. A chunk is filled in
// place and never grown, so a parked record is copied exactly once, and
// the chunks stay with the arena from flush to flush: an engine allocates
// its longest excursion once, chunk by chunk as the excursion first
// reaches that length, and parks in steady state without allocating.
type parkArena struct {
	chunks []*parkChunk // chunks[:used] hold the parked records in trace order; the rest are spare
	used   int
}

type parkChunk struct {
	recs []trace.Record
	ops  []trace.Operand // backs recs' Ops and Result; a record's operands never straddle two chunks
}

// A chunk takes parkChunkRecords records or parkChunkOps operands,
// whichever fills first (116 KB). The 14 ports average 2.3 operands a
// record, results included, so the two fill at about the same time; a
// record with more operands than a whole chunk holds gets a chunk with
// an arena of its own size.
const (
	parkChunkRecords = 512
	parkChunkOps     = 1024
)

// add deep-copies recs onto the end of the parked run.
func (a *parkArena) add(recs []trace.Record) {
	for i := range recs {
		c := a.tail(recs[i].NumOperands())
		c.recs = c.recs[:len(c.recs)+1] // tail left room
		c.ops = recs[i].CloneInto(&c.recs[len(c.recs)-1], c.ops)
	}
}

// tail returns the chunk the next record goes into: the last one in use
// while it has room for a record with need operands, else the next spare
// one, else a new one.
func (a *parkArena) tail(need int) *parkChunk {
	if a.used > 0 {
		if c := a.chunks[a.used-1]; len(c.recs) < cap(c.recs) && len(c.ops)+need <= cap(c.ops) {
			return c
		}
	}
	if a.used == len(a.chunks) {
		a.chunks = append(a.chunks, &parkChunk{recs: make([]trace.Record, 0, parkChunkRecords)})
	}
	c := a.chunks[a.used]
	a.used++
	if want := max(need, parkChunkOps); cap(c.ops) < want {
		c.ops = make([]trace.Operand, 0, want)
	}
	return c
}

// reset empties the arena, keeping every chunk for the next excursion.
func (a *parkArena) reset() {
	for _, c := range a.chunks[:a.used] {
		c.recs, c.ops = c.recs[:0], c.ops[:0]
	}
	a.used = 0
}

// ---- The fused pass ----

// step feeds a run of consecutive records that share one region through
// the fused pass — what both partitioners emit. MLI membership is
// incomplete while the pass runs, so summaries are kept for every variable
// and intersected with the MLI set in finish.
func (a *analyzer) step(recs []trace.Record, reg Region) {
	for k := range recs {
		a.fusedStep(&recs[k], reg)
	}
}

// fusedStep is the per-record body of the fused pass: storage, collect,
// and depend in trace order, with the footprint freeze at the loop's end.
func (a *analyzer) fusedStep(r *trace.Record, reg Region) {
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

// ---- Offline schedule ----

// source yields the records of one trace, replayable once per schedule
// sweep.
type source interface {
	// extent is the partition sweep, by whatever read of the trace is
	// cheapest for the source: the stream indices of the first and the last
	// record spec contains — (-1, -1) when none does — and the record count.
	// It validates nothing it can skip; the fused sweep decodes everything.
	extent(spec LoopSpec) (bStart, bEnd, n int, err error)
	// sweepBatch replays the stream in record slices; base is the stream
	// index of recs[0]. headersOnly tells the source no operand is read —
	// sources that decode per sweep skip the operand decode (headers stay
	// intact); already materialized sources ignore it, which is always a
	// superset. The records are only valid for the duration of each fn
	// call.
	sweepBatch(headersOnly bool, fn func(base int, recs []trace.Record) error) error
}

// sliceSource adapts a materialized []trace.Record without copying.
type sliceSource []trace.Record

// extent walks inward from both ends and never looks inside the loop.
func (s sliceSource) extent(spec LoopSpec) (bStart, bEnd, n int, err error) {
	for bStart < len(s) && !spec.contains(&s[bStart]) {
		bStart++
	}
	if bStart == len(s) {
		return -1, -1, len(s), nil
	}
	for bEnd = len(s) - 1; !spec.contains(&s[bEnd]); bEnd-- {
	}
	return bStart, bEnd, len(s), nil
}

func (s sliceSource) sweepBatch(headersOnly bool, fn func(base int, recs []trace.Record) error) error {
	// Already materialized: the whole slice is one batch, no decode to
	// skip.
	if len(s) == 0 {
		return nil
	}
	return fn(0, s)
}

// streamSource adapts a replayable trace opener (stream.go): each sweep
// re-opens the stream and decodes it once, so no record slice ever
// materializes.
// Sweeps decode into the shared reusable batch — a single record slice
// plus operand arena recycled across batches, sweeps, and (through the
// scratch bundle) across traces.
type streamSource struct {
	open  func() (trace.BatchReader, error)
	batch *trace.RecordBatch
}

func (s *streamSource) sweepBatch(headersOnly bool, fn func(base int, recs []trace.Record) error) error {
	rd, err := s.open()
	if err != nil {
		return err
	}
	s.batch.HeadersOnly = headersOnly
	defer func() { s.batch.HeadersOnly = false }()
	return trace.ForEachBatch(rd, s.batch, fn)
}

// extent is a header-only sweep — a stateful string table (ACTB) or a pipe
// cannot be read from the end: the decode skips every operand and delivers
// the header fields (Func, Line).
func (s *streamSource) extent(spec LoopSpec) (bStart, bEnd, n int, err error) {
	bStart, bEnd = -1, -1
	err = s.sweepBatch(true, func(base int, recs []trace.Record) error {
		for k := range recs {
			if spec.contains(&recs[k]) {
				if bStart < 0 {
					bStart = base + k
				}
				bEnd = base + k
			}
		}
		n = base + len(recs)
		return nil
	})
	return bStart, bEnd, n, err
}

// textSource is an in-memory text trace: a streamSource over its bytes
// whose extent is read off the block headers in place, from both ends, with
// nothing decoded for it.
type textSource struct {
	streamSource
	data []byte
}

func (s *textSource) extent(spec LoopSpec) (bStart, bEnd, n int, err error) {
	bStart, bEnd, n = trace.TextExtent(s.data, spec.Function, spec.StartLine, spec.EndLine)
	return bStart, bEnd, n, nil
}

// scratch bundles the reusable state of one analysis: the analyzer (maps
// and variable table) and the record batch (decode arena). One scratch
// serves any number of analyses sequentially (reset between traces);
// AnalyzeMany keeps one per worker so concurrent engines stop hammering
// the shared allocator.
type scratch struct {
	a     *analyzer
	batch trace.RecordBatch
}

// analyzer returns the bundle's analyzer configured for a fresh trace.
func (sc *scratch) analyzer(spec LoopSpec, opts Options) *analyzer {
	if sc.a == nil {
		sc.a = newAnalyzer(spec, opts)
	} else {
		sc.a.reset(spec, opts)
	}
	return sc.a
}

// analyzeScheduleIn runs the offline schedule over a caller-owned
// (reusable) scratch bundle: the source locates the loop's dynamic extent
// (sweep 1: a header-only decode at most), then the fused sweep completes
// the analysis — the same pass the online engine runs, over the one full
// decode. Analyze (caller-owned records) and the trace-bytes entry points
// (never materialized) are thin adapters that only choose the source;
// memory stays O(variables) whenever the source does.
func analyzeScheduleIn(sc *scratch, src source, spec LoopSpec, opts Options) (*Result, error) {
	t0 := time.Now()
	a := sc.analyzer(spec, opts)
	res := &Result{Spec: spec}

	// Sweep 1: partition (locate the loop's dynamic extent).
	bStart, bEnd, n, err := src.extent(spec)
	if err != nil {
		return nil, err
	}
	part := &spanPartitioner{bStart: bStart, bEnd: bEnd, n: n}
	if !part.sawLoop() {
		// No extent parses an operand line. Decode them before giving up, so
		// a malformed trace reports its decode error, not a missing loop.
		if err := src.sweepBatch(false, func(int, []trace.Record) error { return nil }); err != nil {
			return nil, err
		}
		return nil, &NoLoopError{Spec: spec, Records: part.n}
	}
	res.Stats = part.stats()
	opts.Obs.Histogram("core.sweep.partition.ns").ObserveSince(t0)

	// Sweep 2: the fused pass over full records. Its time inside the pass
	// — two clock reads per batch — is the dependency analysis; the
	// remainder is the second decode, booked to Pre with the first
	// (Table III's "trace reading"), whatever the source.
	t1 := time.Now()
	step := a.step
	err = src.sweepBatch(false, func(base int, recs []trace.Record) error {
		t := time.Now()
		part.runs(base, recs, step)
		res.Timing.Dep += time.Since(t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Timing.Pre = time.Since(t0) - res.Timing.Dep
	opts.Obs.Histogram("core.sweep.analyze.ns").ObserveSince(t1)

	a.finish(res)
	res.Timing.Total = time.Since(t0)
	opts.Obs.Counter("core.analyze.records").Add(int64(res.Stats.Records))
	return res, nil
}

// ---- Online (single-sweep) engine ----

// Engine is the incremental core in its single-sweep configuration — the
// paper's §IX online mode, where analysis runs inside the instrumentation
// itself. Records are observed as they are produced, a batch at a time
// (interp.Machine.TraceInto hands the emitter's batches to ObserveBatch;
// Observe is the one-record case); no trace is materialized and no
// record is revisited.
//
// Region boundaries come from the incremental scanPartitioner, which
// parks just enough lookahead to classify records exactly like the
// offline partition sweep — results are byte-identical to Analyze on the
// same records, the graphs of BuildDDG included (Timing aside, and
// Stats.TraceBytes stays 0: no trace bytes exist online).
type Engine struct {
	spec  LoopSpec
	a     *analyzer
	part  *scanPartitioner
	emit  func([]trace.Record, Region) // a.step, bound once: a per-call method value would allocate
	one   [1]trace.Record              // Observe's one-element batch
	start time.Time
}

// NewEngine prepares a single-sweep analysis session. Every option
// applies online, so the error is always nil; the signature is kept for
// its callers.
func NewEngine(spec LoopSpec, opts Options) (*Engine, error) {
	e := &Engine{
		spec:  spec,
		a:     newAnalyzer(spec, opts),
		part:  &scanPartitioner{spec: spec},
		start: time.Now(),
	}
	e.emit = e.a.step
	return e, nil
}

// ObserveBatch consumes a run of consecutive dynamic instruction records
// — a tracer's emit batch, a decoded chunk of a trace. The records, with
// their Ops and Result storage, need only stay valid for the duration of
// the call (the contract of trace.ForEachBatch and of the interpreter's
// emitter): what the engine cannot classify yet it copies. Records whose
// region the batch decides reach the fused pass as sub-slices of recs;
// pass order always equals trace order, and how a stream is cut into
// batches never changes the result.
func (e *Engine) ObserveBatch(recs []trace.Record) {
	e.part.observe(recs, e.emit)
}

// Observe consumes one dynamic instruction record: ObserveBatch of one.
// The header is copied into the engine; Ops and Result still alias the
// caller's storage, which the contract keeps valid for the call.
func (e *Engine) Observe(r *trace.Record) {
	e.one[0] = *r
	e.part.observe(e.one[:], e.emit)
}

// Finish resolves the trailing records, completes the analysis, and
// returns the result. Call it exactly once, after the last Observe.
// With Options.Obs the fused sweep's total and the identification step
// are recorded here — once per session, never per record, so Observe's
// hot path carries no telemetry cost when disabled or enabled.
func (e *Engine) Finish() (*Result, error) {
	e.part.finish(e.emit)
	stats := e.part.stats()
	if !e.part.sawLoop() {
		return nil, &NoLoopError{Spec: e.spec, Records: stats.Records}
	}
	res := &Result{Spec: e.spec, Stats: stats}
	e.a.finish(res)
	res.Timing.Total = time.Since(e.start)
	obsReg := e.a.opts.Obs
	obsReg.Histogram("core.engine.sweep.ns").Observe(res.Timing.Total)
	obsReg.Counter("core.engine.records").Add(int64(stats.Records))
	return res, nil
}
