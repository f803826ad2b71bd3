package core

import (
	"fmt"
	"time"

	"autocheck/internal/ddg"
	"autocheck/internal/trace"
)

// This file is the single incremental analysis core that every mode of
// AutoCheck adapts to. The pipeline of the paper's Fig. 2 is expressed
// once, as an explicit region state machine (partitioner) plus composable
// passes that consume one trace.Record at a time:
//
//   - storagePass   — address→variable table maintenance (prerequisite of
//     both analysis passes; owns the table reset between sweeps)
//   - collectPass   — module 1, MLI variable collection (§IV-A)
//   - dependPass    — module 2, on-the-fly dependency tracking (§IV-B)
//   - ddgPass       — optional complete-DDG materialization (Fig. 5)
//   - identifyPass  — module 3, critical-variable classification (§IV-C)
//
// The adapters differ only in how records reach the passes:
//
//   - Analyze (caller-owned records) and AnalyzeBytes / AnalyzeFile /
//     AnalyzeStream (trace bytes, decoded per sweep into one recycled
//     batch, never materialized) run the offline *schedule*
//     (analyzeSchedule): bounded sweeps over a replayable source —
//     a header-only partition sweep, then one fused
//     storage+collect+depend sweep (analysisPass), batched — so
//     memory stays O(variables) without a parallel
//     implementation. With BuildDDG the split three-sweep schedule
//     (partition, storage+collect, storage+depend+ddg) runs instead,
//     because DDG vertex kinds need the final MLI set.
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

// spanPartitioner classifies by the loop's dynamic extent [bStart, bEnd]:
// every record inside that index interval is region B, including records
// of callees invoked from the loop.
type spanPartitioner struct {
	spec         LoopSpec
	bStart, bEnd int
	n            int
}

func newSpanPartitioner(spec LoopSpec) *spanPartitioner {
	return &spanPartitioner{spec: spec, bStart: -1, bEnd: -1}
}

// observe is the partition sweep: it learns the extent record by record.
func (p *spanPartitioner) observe(i int, r *trace.Record) error {
	p.n = i + 1
	if p.spec.contains(r) {
		if p.bStart < 0 {
			p.bStart = i
		}
		p.bEnd = i
	}
	return nil
}

func (p *spanPartitioner) classify(r *trace.Record, i int) Region {
	switch {
	case i < p.bStart:
		return RegionBefore
	case i <= p.bEnd:
		return RegionLoop
	default:
		return RegionAfter
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

// flush emits the parked records chunk by chunk. Passes never retain
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

// Pass is one composable stage of the engine. A pass consumes classified
// records one at a time; schedules decide which passes share a sweep.
// Future passes (new classifiers, per-rank reducers, trace statistics)
// implement this interface and slot into a schedule — see DESIGN.md
// "The analysis engine" for the contract.
type Pass interface {
	// Name identifies the pass in schedules and diagnostics.
	Name() string
	// Begin resets the pass for a sweep that starts at the head of the
	// trace. It runs before any Step of that sweep.
	Begin()
	// Step consumes one record together with its region classification.
	Step(r *trace.Record, i int, reg Region)
	// Finish contributes the pass's output to the result after its final
	// sweep.
	Finish(res *Result)
}

// BatchPass is the optional batch extension of Pass: a pass that also
// implements StepBatch consumes whole decoded record batches, paying one
// virtual call per batch instead of one per record. Semantics must equal
// calling Step(recs[k], base+k, regions[k]) for every k in order — the
// equivalence is pinned by tests. A sweep batch-dispatches at most ONE
// pass: two passes sharing analyzer state would see each other's updates
// whole-batches-early instead of record-by-record (the storage table a
// later pass resolves through would already reflect the batch's future).
// Sweeps that fuse several stages express them as one pass — see
// analysisPass — rather than batch-stepping a pass list.
type BatchPass interface {
	Pass
	// StepBatch consumes one batch of records; base is the stream index
	// of recs[0] and regions[k] classifies recs[k].
	StepBatch(recs []trace.Record, base int, regions []Region)
}

// storagePass maintains the address→variable table that both analysis
// passes resolve through. It owns the table reset: each sweep replays
// storage from the start so resolution stays time-correct (the same
// "active state at a certain point" semantics as the paper's reg-var
// map).
type storagePass struct{ a *analyzer }

func (p *storagePass) Name() string                            { return "storage" }
func (p *storagePass) Begin()                                  { p.a.vt.reset() }
func (p *storagePass) Step(r *trace.Record, i int, reg Region) { p.a.trackStorage(r) }
func (p *storagePass) Finish(res *Result)                      {}

// collectPass is module 1 (§IV-A): collect the variables accessed in
// region A, match region-B accesses against them, and emit the MLI set.
type collectPass struct{ a *analyzer }

func (p *collectPass) Name() string { return "collect" }
func (p *collectPass) Begin()       {}
func (p *collectPass) Step(r *trace.Record, i int, reg Region) {
	switch reg {
	case RegionBefore:
		p.a.collectRegionA(r)
	case RegionLoop:
		p.a.collectRegionBMatch(r)
	}
}
func (p *collectPass) Finish(res *Result) { res.MLI = p.a.mliList() }

// dependPass is module 2 (§IV-B): maintain the reg-var and reg-reg maps
// over the whole trace and stream region-B/C read-write information into
// the per-variable summaries that identification consumes.
type dependPass struct{ a *analyzer }

func (p *dependPass) Name() string { return "depend" }
func (p *dependPass) Begin()       {}
func (p *dependPass) Step(r *trace.Record, i int, reg Region) {
	p.a.updateMaps(r)
	switch reg {
	case RegionLoop:
		p.a.processLoopRecord(r)
	case RegionAfter:
		p.a.processAfterLoop(r)
	}
}
func (p *dependPass) Finish(res *Result) {}

// ddgPass activates complete-DDG materialization (Fig. 5(c)) for the
// sweep that runs the dependency pass, and contracts it to the MLI
// vertices (Algorithm 1) at the end. Graph construction itself rides the
// dependency logic — the pass's contribution is turning it on and
// finalizing the graphs.
type ddgPass struct{ a *analyzer }

func (p *ddgPass) Name() string { return "ddg" }
func (p *ddgPass) Begin() {
	p.a.graph = ddg.New()
	p.a.regNode = make(map[regKey]*ddg.Node)
	p.a.varNodes = make(map[VarID]*ddg.Node)
}
func (p *ddgPass) Step(r *trace.Record, i int, reg Region) {}
func (p *ddgPass) Finish(res *Result) {
	res.Complete = p.a.graph
	res.Contracted = p.a.graph.Contract(func(n *ddg.Node) bool { return n.Kind == ddg.KindMLI })
}

// identifyPass is module 3 (§IV-C): classify the MLI variables from the
// accumulated summaries and add the outermost loop's induction variable.
// It consumes no records — everything it needs was streamed into the
// summaries by the dependency pass — which is what lets every adapter
// share it without a record slice.
type identifyPass struct{ a *analyzer }

func (p *identifyPass) Name() string                            { return "identify" }
func (p *identifyPass) Begin()                                  {}
func (p *identifyPass) Step(r *trace.Record, i int, reg Region) {}
func (p *identifyPass) Finish(res *Result) {
	res.Critical = p.a.identify()
	if p.a.opts.Explain {
		res.Provenance = p.a.provenance(res.Critical)
	}
}

// analysisPass fuses storage+collect+depend into a single pass — the
// configuration the online engine has always run, now shared with the
// offline schedule's fused sweep. Fusion requires analyzer.trackAll:
// MLI membership is incomplete while the sweep runs, so summaries are
// kept for every variable and intersected with the MLI set at Finish,
// and the variable table freezes at the first region-C record so
// reported global footprints match the collect sweep (which never
// observes region C). The equivalence of this fusion to the split
// sweeps is exactly the pinned engine↔offline equivalence.
type analysisPass struct{ a *analyzer }

func (p *analysisPass) Name() string { return "analysis" }
func (p *analysisPass) Begin() {
	p.a.vt.reset()
	p.a.frozen = false
}
func (p *analysisPass) Step(r *trace.Record, i int, reg Region) { p.a.fusedStep(r, reg) }
func (p *analysisPass) StepBatch(recs []trace.Record, base int, regions []Region) {
	for k := range recs {
		p.a.fusedStep(&recs[k], regions[k])
	}
}
func (p *analysisPass) Finish(res *Result) { res.MLI = p.a.mliList() }

// fusedStep is the per-record body of the fused pass: storage, collect,
// and depend in trace order, with the footprint freeze at the loop's end.
func (a *analyzer) fusedStep(r *trace.Record, reg Region) {
	if reg == RegionAfter && !a.frozen {
		// Match the offline split schedule's footprint semantics: its
		// collect sweep stops observing at the loop's end, so region-C
		// accesses never grow a reported global footprint. Freezing
		// changes no address resolution (global resolution is by base,
		// not extent) — only the recorded sizes.
		a.frozen = true
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

// ---- Offline schedule ----

// source yields the records of one trace, replayable once per schedule
// sweep.
type source interface {
	// sweep replays the stream one record at a time.
	sweep(fn func(i int, r *trace.Record) error) error
	// sweepBatch replays the stream in record slices; base is the stream
	// index of recs[0]. A non-nil filter tells the source which opcodes
	// need their operands — sources that decode per sweep skip the
	// operand decode for rejected opcodes (headers stay intact); already
	// materialized sources ignore it, which is always a superset. The
	// records are only valid for the duration of each fn call.
	sweepBatch(filter func(opcode int) bool, fn func(base int, recs []trace.Record) error) error
}

// sliceSource adapts a materialized []trace.Record without copying.
type sliceSource []trace.Record

func (s sliceSource) sweep(fn func(i int, r *trace.Record) error) error {
	for i := range s {
		if err := fn(i, &s[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s sliceSource) sweepBatch(filter func(opcode int) bool, fn func(base int, recs []trace.Record) error) error {
	// Already materialized: the whole slice is one batch, no decode to
	// filter.
	if len(s) == 0 {
		return nil
	}
	return fn(0, s)
}

// streamSource adapts an AnalyzeStream-style opener: each sweep re-opens
// the stream and decodes it once, so no record slice ever materializes.
// Batched sweeps decode into the shared reusable batch — a single record
// slice plus operand arena recycled across batches, sweeps, and (through
// the scratch bundle) across traces.
type streamSource struct {
	open  func() (trace.Reader, error)
	batch *trace.RecordBatch
}

func (s *streamSource) sweep(fn func(i int, r *trace.Record) error) error {
	return s.sweepBatch(nil, func(base int, recs []trace.Record) error {
		for k := range recs {
			if err := fn(base+k, &recs[k]); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *streamSource) sweepBatch(filter func(opcode int) bool, fn func(base int, recs []trace.Record) error) error {
	rd, err := s.open()
	if err != nil {
		return err
	}
	s.batch.Filter = filter
	defer func() { s.batch.Filter = nil }()
	return trace.ForEachBatch(rd, s.batch, fn)
}

// runSweep drives one schedule sweep: Begin every pass, then classify and
// feed each record through the passes in order.
func runSweep(src source, part *spanPartitioner, passes ...Pass) error {
	for _, p := range passes {
		p.Begin()
	}
	return src.sweep(func(i int, r *trace.Record) error {
		reg := part.classify(r, i)
		for _, p := range passes {
			p.Step(r, i, reg)
		}
		return nil
	})
}

// runSweepBatched drives one schedule sweep through a single pass in
// record batches: regions are classified into a reusable scratch slice,
// then the batch goes to StepBatch when the pass implements BatchPass and
// record-by-record Step otherwise — byte-identical either way (pinned by
// tests). Exactly one pass by construction: see the BatchPass contract
// for why a pass list cannot be batch-dispatched. filter narrows the
// operand decode (nil: full records); it must admit every opcode the
// pass reads operands of. The (possibly grown) region scratch is
// returned for reuse, with the time spent inside the pass — two clock
// reads per batch; the rest of the sweep's wall time is the source's
// decode.
func runSweepBatched(src source, part *spanPartitioner, filter func(opcode int) bool, regions []Region, p Pass) ([]Region, time.Duration, error) {
	p.Begin()
	bp, batched := p.(BatchPass)
	var inPass time.Duration
	err := src.sweepBatch(filter, func(base int, recs []trace.Record) error {
		t0 := time.Now()
		if cap(regions) < len(recs) {
			regions = make([]Region, len(recs))
		}
		regions = regions[:len(recs)]
		for k := range recs {
			regions[k] = part.classify(&recs[k], base+k)
		}
		if batched {
			bp.StepBatch(recs, base, regions)
		} else {
			for k := range recs {
				p.Step(&recs[k], base+k, regions[k])
			}
		}
		inPass += time.Since(t0)
		return nil
	})
	return regions, inPass, err
}

// filterNone rejects every opcode: the partition sweep consults only
// header fields (Func, Line), so its decode can skip every operand.
func filterNone(int) bool { return false }

// scratch bundles the reusable state of one analysis: the analyzer (maps
// and variable table), the record batch (decode arena), and the region
// scratch of batched sweeps. One scratch serves any number of analyses
// sequentially (reset between traces); AnalyzeMany keeps one per worker
// so concurrent engines stop hammering the shared allocator.
type scratch struct {
	a       *analyzer
	batch   trace.RecordBatch
	regions []Region
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

// analyzeSchedule is the engine's bounded-memory offline schedule over a
// fresh scratch bundle; analyzeScheduleIn is the same schedule over a
// caller-owned (reusable) one.
func analyzeSchedule(src source, spec LoopSpec, opts Options) (*Result, error) {
	return analyzeScheduleIn(&scratch{}, src, spec, opts)
}

// analyzeScheduleIn runs the offline schedule: sweep 1 locates the loop's
// dynamic extent (building the span partitioner, decoding headers only),
// then one fused storage+collect+depend sweep completes the analysis —
// the same fusion the online engine runs, so one header hop and one full
// decode instead of three decodes, both batched. With BuildDDG the split
// three-sweep schedule runs instead: DDG vertex kinds depend on MLI
// membership, which the fused sweep only finalizes at the end. Analyze
// (caller-owned records) and the trace-bytes entry points (never
// materialized) are thin adapters that only choose the source; memory
// stays O(variables) whenever the source does.
func analyzeScheduleIn(sc *scratch, src source, spec LoopSpec, opts Options) (*Result, error) {
	total0 := time.Now()
	a := sc.analyzer(spec, opts)
	res := &Result{Spec: spec}

	// Sweep 1: partition (locate the loop's dynamic extent). Only header
	// fields matter, so the decode skips every operand.
	t0 := time.Now()
	part := newSpanPartitioner(spec)
	err := src.sweepBatch(filterNone, func(base int, recs []trace.Record) error {
		for k := range recs {
			part.observe(base+k, &recs[k]) // never fails
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !part.sawLoop() {
		// The header-only sweep skipped every operand line unparsed. Decode
		// them before giving up, so a trace that is malformed reports its
		// decode error rather than a missing loop.
		if err := src.sweepBatch(nil, func(int, []trace.Record) error { return nil }); err != nil {
			return nil, err
		}
		return nil, &NoLoopError{Spec: spec, Records: part.n}
	}
	res.Stats = part.stats()
	opts.Obs.Histogram("core.sweep.partition.ns").ObserveSince(t0)

	if !opts.BuildDDG {
		// Fused sweep: storage, collect, and depend in one pass. Its time
		// inside the pass is the dependency analysis; the remainder is the
		// second decode, booked to Pre with the first (Table III's
		// "trace reading"), whatever the source.
		t1 := time.Now()
		a.trackAll = true
		ap := &analysisPass{a}
		if sc.regions, res.Timing.Dep, err = runSweepBatched(src, part, nil, sc.regions, ap); err != nil {
			return nil, err
		}
		ap.Finish(res)
		res.Timing.Pre = time.Since(t0) - res.Timing.Dep
		opts.Obs.Histogram("core.sweep.analyze.ns").ObserveSince(t1)
	} else {
		// Sweep 2: MLI collection (module 1).
		t1 := time.Now()
		collect := &collectPass{a}
		if err := runSweep(src, part, &storagePass{a}, collect); err != nil {
			return nil, err
		}
		collect.Finish(res)
		res.Timing.Pre = time.Since(t0)
		opts.Obs.Histogram("core.sweep.collect.ns").ObserveSince(t1)

		// Sweep 3: dependency analysis (module 2) with the DDG.
		t1 = time.Now()
		passes := []Pass{&storagePass{a}, &dependPass{a}, &ddgPass{a}}
		if err := runSweep(src, part, passes...); err != nil {
			return nil, err
		}
		for _, p := range passes {
			p.Finish(res)
		}
		res.Timing.Dep = time.Since(t1)
		opts.Obs.Histogram("core.sweep.depend.ns").ObserveSince(t1)
	}

	// Identification (module 3).
	t0 = time.Now()
	(&identifyPass{a}).Finish(res)
	res.Timing.Identify = time.Since(t0)
	res.Timing.Total = time.Since(total0)
	opts.Obs.Histogram("core.identify.ns").ObserveSince(t0)
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
// The offline schedule consults MLI membership while streaming dependency
// events; fused into one sweep, the engine instead tracks summaries for
// every variable and intersects with the MLI set at Finish. Region
// boundaries come from the incremental scanPartitioner, which parks
// just enough lookahead to classify records exactly like the offline
// partition sweep — results are byte-identical to Analyze on the same
// records (Timing aside, and Stats.TraceBytes stays 0: no trace bytes
// exist online). BuildDDG requires offline analysis: DDG vertex kinds
// depend on MLI membership, which is only final when the stream ends.
type Engine struct {
	spec  LoopSpec
	a     *analyzer
	part  *scanPartitioner
	pass  *analysisPass                // the fused storage+collect+depend pass
	emit  func([]trace.Record, Region) // e.step, bound once: a per-call method value would allocate
	one   [1]trace.Record              // Observe's one-element batch
	n     int
	start time.Time
}

// NewEngine prepares a single-sweep analysis session.
func NewEngine(spec LoopSpec, opts Options) (*Engine, error) {
	if opts.BuildDDG {
		return nil, fmt.Errorf("core: BuildDDG requires offline analysis")
	}
	a := newAnalyzer(spec, opts)
	a.trackAll = true
	e := &Engine{
		spec:  spec,
		a:     a,
		part:  &scanPartitioner{spec: spec},
		pass:  &analysisPass{a},
		start: time.Now(),
	}
	e.emit = e.step
	e.pass.Begin()
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

// uniformRegions classifies a run of records that share one region, for
// StepBatch's regions argument; runs longer than a row are stepped in
// pieces.
var uniformRegions = func() (t [3][trace.DefaultBatchRecords]Region) {
	for reg := range t {
		for k := range t[reg] {
			t[reg][k] = Region(reg)
		}
	}
	return t
}()

// step feeds a run of records resolved to one region through the fused
// pass (which owns the footprint freeze at the loop's end).
func (e *Engine) step(recs []trace.Record, reg Region) {
	regions := uniformRegions[reg][:]
	for len(recs) > 0 {
		k := min(len(recs), len(regions))
		e.pass.StepBatch(recs[:k], e.n, regions[:k])
		e.n += k
		recs = recs[k:]
	}
}

// Finish resolves the trailing records, completes the analysis, and
// returns the result. Call it exactly once, after the last Observe.
// With Options.Obs the fused sweep's total and the identification step
// are recorded here — once per session, never per record, so Observe's
// hot path carries no telemetry cost when disabled or enabled.
func (e *Engine) Finish() (*Result, error) {
	e.part.finish(e.emit)
	if !e.part.sawLoop() {
		return nil, &NoLoopError{Spec: e.spec, Records: e.n}
	}
	res := &Result{Spec: e.spec}
	res.Stats = e.part.stats()
	e.pass.Finish(res)
	t0 := time.Now()
	(&identifyPass{e.a}).Finish(res)
	res.Timing.Identify = time.Since(t0)
	res.Timing.Total = time.Since(e.start)
	obsReg := e.a.opts.Obs
	obsReg.Histogram("core.identify.ns").Observe(res.Timing.Identify)
	obsReg.Histogram("core.engine.sweep.ns").Observe(res.Timing.Total)
	obsReg.Counter("core.engine.records").Add(int64(res.Stats.Records))
	return res, nil
}
