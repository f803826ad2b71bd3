// Package harness regenerates the paper's evaluation artifacts: Table II
// (benchmarks and detected critical variables), Table III (analysis-time
// breakdown over the text and binary encodings), Table IV
// (checkpoint storage versus a BLCR-like full snapshot), and the §VI-B
// validation summary. Each Run* function returns structured rows; the
// Format* functions render them as aligned text tables.
package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"autocheck/internal/checkpoint"
	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/pool"
	"autocheck/internal/progs"
	"autocheck/internal/store"
	"autocheck/internal/trace"
	"autocheck/internal/validate"
)

// Prepared bundles everything needed to analyze one benchmark.
type Prepared struct {
	Bench   *progs.Benchmark
	Mod     *ir.Module
	Spec    core.LoopSpec
	Records []trace.Record
	Data    []byte // textual trace encoding
	GenTime time.Duration

	binData []byte // lazily encoded by BinData
}

// BinData returns the compact binary trace encoding, encoding it on
// first use (Table IV and validation runs never need it, so Prepare does
// not pay for it).
func (p *Prepared) BinData() []byte {
	if p.binData == nil {
		p.binData = trace.EncodeBinary(p.Records)
	}
	return p.binData
}

// Prepare compiles, runs, and traces a benchmark at the given scale
// (0 = default).
func Prepare(b *progs.Benchmark, scale int) (*Prepared, error) {
	src := b.Source(scale)
	mod, err := interp.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	spec, err := b.Spec(scale)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	recs, _, err := interp.TraceProgram(mod)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: trace: %w", b.Name, err)
	}
	gen := time.Since(t0)
	return &Prepared{
		Bench: b, Mod: mod, Spec: spec, Records: recs,
		Data: trace.EncodeAll(recs), GenTime: gen,
	}, nil
}

// analyzed prepares a benchmark and analyzes its textual trace.
func analyzed(b *progs.Benchmark, scale int) (*Prepared, *core.Result, error) {
	p, err := Prepare(b, scale)
	if err != nil {
		return nil, nil, err
	}
	res, err := p.Analyze()
	return p, res, err
}

// Analyze runs AutoCheck over a prepared benchmark's textual trace.
func (p *Prepared) Analyze() (*core.Result, error) {
	return p.AnalyzeData(p.Data)
}

// AnalyzeBinary runs AutoCheck over the benchmark's binary trace.
func (p *Prepared) AnalyzeBinary() (*core.Result, error) {
	return p.AnalyzeData(p.BinData())
}

// AnalyzeData runs AutoCheck over the given trace encoding.
func (p *Prepared) AnalyzeData(data []byte) (*core.Result, error) {
	return core.AnalyzeBytes(data, p.Spec, p.opts())
}

// AnalyzeOnline runs the engine single-sweep over the prepared records,
// through the batch entry a live tracer feeds (§IX online mode; no
// re-execution, the materialized records stand in for the feed — here as
// one batch; the engine's result does not depend on how a feed is cut).
func (p *Prepared) AnalyzeOnline() (*core.Result, error) {
	eng, err := core.NewEngine(p.Spec, p.opts())
	if err != nil {
		return nil, err
	}
	eng.ObserveBatch(p.Records)
	return eng.Finish()
}

// Input adapts the prepared benchmark into a core.AnalyzeMany input over
// its materialized records.
func (p *Prepared) Input() core.Input {
	return core.Input{Name: p.Bench.Name, Spec: p.Spec, Opts: p.opts(), Records: p.Records}
}

func (p *Prepared) opts() core.Options {
	opts := core.DefaultOptions()
	opts.Module = p.Mod
	return opts
}

// ---- Table II ----

// Table2Row is one row of Table II.
type Table2Row struct {
	Name        string
	Description string
	LOC         int
	TraceBytes  int64 // textual trace size
	BinaryBytes int64 // compact binary trace size
	GenTime     time.Duration
	Critical    []string // "name (Type)" in report order
	MCLR        string
}

// RunTable2 regenerates Table II over all 14 benchmarks, one at a time:
// RunTable2Parallel with one worker.
func RunTable2() ([]Table2Row, error) { return RunTable2Parallel(1) }

// RunTable2Parallel regenerates Table II with the whole per-benchmark
// pipeline fanned out over a worker pool: preparation (compile + trace)
// runs workers-wide, then all 14 analyses run concurrently through
// core.AnalyzeMany — one engine per trace. Rows do not depend on
// workers apart from timings.
func RunTable2Parallel(workers int) ([]Table2Row, error) {
	benches := progs.All()
	preps := make([]*Prepared, len(benches))
	perrs := make([]error, len(benches))
	pool.ForEach(len(benches), workers, func(i int) {
		preps[i], perrs[i] = Prepare(benches[i], 0)
	})
	if err := errors.Join(perrs...); err != nil {
		return nil, err
	}
	inputs := make([]core.Input, len(preps))
	for i, p := range preps {
		inputs[i] = p.Input()
	}
	results, err := core.AnalyzeMany(inputs, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, len(preps))
	for i, p := range preps {
		rows[i] = table2Row(p, results[i])
	}
	return rows, nil
}

// table2Row renders one benchmark's analysis into its Table II row.
func table2Row(p *Prepared, res *core.Result) Table2Row {
	row := Table2Row{
		Name:        p.Bench.Name,
		Description: p.Bench.Description,
		LOC:         p.Bench.LOC(),
		TraceBytes:  int64(len(p.Data)),
		BinaryBytes: int64(len(p.BinData())),
		GenTime:     p.GenTime,
		MCLR:        fmt.Sprintf("%d-%d (main)", p.Spec.StartLine, p.Spec.EndLine),
	}
	for _, c := range res.Critical {
		row.Critical = append(row.Critical, fmt.Sprintf("%s (%s)", c.Name, c.Type))
	}
	return row
}

// FormatTable2 renders Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II: benchmarks and detected critical variables\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Name\tLOC\tTrace size (text)\tTrace size (binary)\tTrace gen\tCritical variables (type)\tMCLR")
	for _, r := range rows {
		bin := fmtBytes(r.BinaryBytes)
		if r.TraceBytes > 0 && r.BinaryBytes > 0 {
			bin = fmt.Sprintf("%s (%.0f%%)", bin, 100*float64(r.BinaryBytes)/float64(r.TraceBytes))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, r.LOC, fmtBytes(r.TraceBytes), bin, fmtDur(r.GenTime),
			strings.Join(r.Critical, ", "), r.MCLR)
	}
	w.Flush()
	return b.String()
}

// ---- Table III ----

// Table3Row is one row of Table III.
type Table3Row struct {
	Name      string
	Pre       time.Duration // text pre-processing
	PreBinary time.Duration // binary-format pre-processing
	Dep       time.Duration
	Identify  time.Duration
	Total     time.Duration
}

// RunTable3 regenerates Table III: per-phase analysis cost over the text
// trace, plus pre-processing over the compact binary one. (The paper's
// parallel column is across traces here: RunTable2Parallel.)
func RunTable3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range progs.All() {
		p, err := Prepare(b, 0)
		if err != nil {
			return nil, err
		}
		text, err := p.Analyze()
		if err != nil {
			return nil, err
		}
		bin, err := p.AnalyzeBinary()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Name:      b.Name,
			Pre:       text.Timing.Pre,
			PreBinary: bin.Timing.Pre,
			Dep:       text.Timing.Dep,
			Identify:  text.Timing.Identify,
			Total:     text.Timing.Total,
		})
	}
	return rows, nil
}

// FormatTable3 renders Table III.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table III: analysis cost\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Name\tPre (binary)\tDependency\tIdentify\tTotal")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s (%s)\t%s\t%s\t%s\n",
			r.Name, fmtDur(r.Pre), fmtDur(r.PreBinary),
			fmtDur(r.Dep), fmtDur(r.Identify), fmtDur(r.Total))
	}
	w.Flush()
	return b.String()
}

// ---- Table IV ----

// Table4Row is one row of Table IV.
type Table4Row struct {
	Name           string
	InputScale     int
	BLCRBytes      int64 // full-process snapshot
	AutoCheckBytes int64 // variable checkpoint
}

// RunTable4 regenerates Table IV at each benchmark's large scale: the
// size of one BLCR-like full snapshot versus one AutoCheck variable
// checkpoint, both captured at the same main-loop boundary.
func RunTable4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, b := range progs.All() {
		p, res, err := analyzed(b, b.LargeScale)
		if err != nil {
			return nil, err
		}
		acBytes, blcrBytes, err := MeasureStorage(p.Mod, res)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Name: b.Name, InputScale: b.LargeScale,
			BLCRBytes: blcrBytes, AutoCheckBytes: acBytes,
		})
	}
	return rows, nil
}

// MeasureStorage runs a module until the first main-loop checkpoint and
// captures the size of an AutoCheck variable checkpoint and a BLCR-like
// full snapshot at that instant: the §VI-B protocol failing after
// checkpoint 1. Both images are real ones, sized in memory (no files
// needed for Table IV): the AutoCheck image is what an L1 checkpoint of
// the critical set encodes to.
func MeasureStorage(mod *ir.Module, res *core.Result) (autoCheck, blcr int64, err error) {
	f, err := validate.NewFailStop(mod, res, store.Config{Kind: store.KindMemory}, checkpoint.L1)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	d, err := f.Run(1, func(m *interp.Machine, iter int64) {
		blcr = int64(len(checkpoint.FullSnapshot(m, iter)))
	})
	switch {
	case err != nil:
		return 0, 0, err
	case d.Err == nil:
		return 0, 0, fmt.Errorf("harness: main loop boundary never reached")
	case !errors.Is(d.Err, interp.ErrFailStop):
		return 0, 0, d.Err
	}
	return d.LastBytes, blcr, nil
}

// StorageRun is the outcome of checkpointing one full benchmark run
// through a storage backend configuration (the Table IV storage
// comparison extended to whole runs: full snapshots vs critical-set
// images vs what the backend actually persisted).
type StorageRun struct {
	Checkpoints     int
	LogicalBytes    int64 // sum of critical-set checkpoint images
	PersistedBytes  int64 // bytes the backend chain actually wrote
	SnapshotBytes   int64 // sum of BLCR-like full snapshots at the same points
	SectionsSkipped int64 // unchanged variables elided by the incremental decorator
	Keyframes       int64
	Deltas          int64
	RestartIter     int64       // iteration recovered from the final checkpoint
	Stats           store.Stats // the backend chain's full accounting snapshot
}

// MeasureStorageRun executes the module to completion, checkpointing the
// AutoCheck-critical variables at every main-loop boundary through the
// backend selected by cfg, then restarts it from what the store kept:
// the §VI-B protocol with no failure. When withSnapshots is set it also
// sizes a BLCR-like full snapshot at each boundary for comparison.
func MeasureStorageRun(mod *ir.Module, res *core.Result, scfg store.Config, level checkpoint.Level, withSnapshots bool) (*StorageRun, error) {
	f, err := validate.NewFailStop(mod, res, scfg, level)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snapshots int64
	var at func(*interp.Machine, int64)
	if withSnapshots {
		at = func(m *interp.Machine, iter int64) {
			snapshots += int64(len(checkpoint.FullSnapshot(m, iter)))
		}
	}
	d, err := f.Run(0, at)
	switch {
	case err != nil:
		return nil, err
	case d.Err != nil:
		return nil, fmt.Errorf("harness: storage run: %w", d.Err)
	case d.FlushErr != nil:
		return nil, fmt.Errorf("harness: storage flush: %w", d.FlushErr)
	}
	out := &StorageRun{
		Checkpoints:     d.Committed,
		LogicalBytes:    d.TotalBytes,
		PersistedBytes:  d.Stats.BytesWritten,
		SnapshotBytes:   snapshots,
		SectionsSkipped: d.Stats.SectionsSkipped,
		Keyframes:       d.Stats.Keyframes,
		Deltas:          d.Stats.Deltas,
		Stats:           d.Stats,
	}
	if out.Checkpoints > 0 {
		rec := f.Recover(nil)
		if rec.Err != nil {
			return nil, fmt.Errorf("harness: restart after storage run: %w", rec.Err)
		}
		out.RestartIter = rec.Iter
	}
	return out, nil
}

// ---- many-clients checkpoint service scenario ----

// ManyClientsRun aggregates N concurrent checkpointing clients — each
// its own checkpoint.Context over its own backend chain (for the remote
// kind: its own namespace of one shared checkpoint service) — running
// the same benchmark and checkpointing its critical variables at every
// main-loop boundary.
type ManyClientsRun struct {
	Clients           int
	Checkpoints       int           // total checkpoints written across clients
	BytesWritten      int64         // bytes handed to storage (client-observed)
	Elapsed           time.Duration // wall clock for the concurrent phase
	CkptsPerSec       float64
	RestartsOK        int   // clients whose final restart recovered the last checkpoint
	CacheHits         int64 // summed across clients (cache tier only)
	CacheFollowerHits int64 // single-flight followers served by a leader's fetch
	CacheMisses       int64
	SectionsWritten   int64
}

// manyClientsRunSeq disambiguates the scratch locations (directories,
// and therefore remote namespaces) of successive RunManyClients calls
// in one process, so benchmark iterations don't append into each
// other's key spaces.
var manyClientsRunSeq atomic.Int64

// RunManyClients prepares `clients` independent copies of the named
// benchmark (own module, own machine — nothing shared but the storage
// service) and runs them concurrently, each checkpointing through the
// backend chain described by tmpl. For file-like kinds each client
// writes under tmpl.Dir/<unique>/client-NNN; for the remote kind the
// same per-client location is derived into a unique service namespace,
// so N clients against one server exercise genuinely concurrent traffic
// with disjoint key spaces. Every client verifies its own restart.
func RunManyClients(benchName string, scale int, tmpl store.Config, level checkpoint.Level, clients int) (*ManyClientsRun, error) {
	if clients < 1 {
		clients = 1
	}
	bench := progs.Get(benchName)
	if bench == nil {
		return nil, fmt.Errorf("harness: unknown benchmark %q", benchName)
	}
	preps := make([]*Prepared, clients)
	results := make([]*core.Result, clients)
	errs := make([]error, clients)
	pool.ForEach(clients, clients, func(i int) {
		preps[i], results[i], errs[i] = analyzed(bench, scale)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	runID := manyClientsRunSeq.Add(1)
	out := &ManyClientsRun{Clients: clients}
	runs := make([]*StorageRun, clients)
	t0 := time.Now()
	pool.ForEach(clients, clients, func(i int) {
		cfg := tmpl
		cfg.Dir = filepath.Join(tmpl.Dir, fmt.Sprintf("mc%06d", runID), fmt.Sprintf("client-%03d", i))
		var err error
		if runs[i], err = MeasureStorageRun(preps[i].Mod, results[i], cfg, level, false); err != nil {
			errs[i] = fmt.Errorf("harness: client %d: %w", i, err)
		}
	})
	out.Elapsed = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, run := range runs {
		out.Checkpoints += run.Checkpoints
		out.BytesWritten += run.PersistedBytes
		out.SectionsWritten += run.Stats.SectionsWritten
		out.CacheHits += run.Stats.CacheHits
		out.CacheFollowerHits += run.Stats.CacheFollowerHits
		out.CacheMisses += run.Stats.CacheMisses
		// A restart that fell back to an older checkpoint (torn/corrupt
		// newest object) is recovery, but not the "recovered the last
		// checkpoint" this scenario promises — count only exact recovery.
		if run.Checkpoints > 0 && run.RestartIter == int64(run.Checkpoints) {
			out.RestartsOK++
		}
	}
	if s := out.Elapsed.Seconds(); s > 0 {
		out.CkptsPerSec = float64(out.Checkpoints) / s
	}
	return out, nil
}

// FormatManyClients renders one scenario line.
func FormatManyClients(r *ManyClientsRun) string {
	return fmt.Sprintf(
		"%d clients: %d checkpoints in %v (%.0f ckpt/s), %s written, restarts %d/%d ok, cache %d hit / %d follower / %d miss\n",
		r.Clients, r.Checkpoints, r.Elapsed.Round(time.Millisecond), r.CkptsPerSec,
		fmtBytes(r.BytesWritten), r.RestartsOK, r.Clients, r.CacheHits, r.CacheFollowerHits, r.CacheMisses)
}

// FormatTable4 renders Table IV.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table IV: storage cost for checkpointing\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Name\tInput scale\tBLCR-like (full image)\tAutoCheck (variables)\tReduction")
	for _, r := range rows {
		red := "-"
		if r.AutoCheckBytes > 0 {
			red = fmt.Sprintf("%.1fx", float64(r.BLCRBytes)/float64(r.AutoCheckBytes))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n",
			r.Name, r.InputScale, fmtBytes(r.BLCRBytes), fmtBytes(r.AutoCheckBytes), red)
	}
	w.Flush()
	return b.String()
}

// ---- §VI-B validation ----

// ValidationRow is one row of the validation summary.
type ValidationRow struct {
	Name           string
	Iterations     int64
	Sufficient     bool
	FalsePositives []string
	CkptBytes      int64
	SnapBytes      int64
}

// RunValidation reproduces §VI-B for the named benchmark ports (nil or
// empty means all 14; the CLI's smoke modes validate a single port against
// a live checkpoint service): fail-stop, restart, compare, and
// per-variable necessity, with checkpoints persisted through opts (the
// zero Options: L1 over the file backend).
func RunValidation(scratch string, opts validate.Options, names []string) ([]ValidationRow, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if progs.Get(n) == nil {
			return nil, fmt.Errorf("harness: unknown benchmark %q", n)
		}
		want[n] = true
	}
	var rows []ValidationRow
	for _, b := range progs.All() {
		if len(want) > 0 && !want[b.Name] {
			continue
		}
		p, res, err := analyzed(b, 0)
		if err != nil {
			return nil, err
		}
		v, err := validate.New(p.Mod, res, fmt.Sprintf("%s/%s", scratch, b.Name), opts)
		if err != nil {
			return nil, err
		}
		rep, err := v.Run()
		if err != nil {
			return nil, err
		}
		row := ValidationRow{
			Name: b.Name, Iterations: rep.Iterations, Sufficient: rep.Sufficient,
			CkptBytes: rep.CheckpointBytes, SnapBytes: rep.FullSnapshotBytes,
		}
		for name, nec := range rep.Necessary {
			if !nec {
				row.FalsePositives = append(row.FalsePositives, name)
			}
		}
		sort.Strings(row.FalsePositives)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatValidation renders the validation summary.
func FormatValidation(rows []ValidationRow) string {
	var b strings.Builder
	b.WriteString("Validation (§VI-B): fail-stop + restart with detected variables\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Name\tIterations\tRestart OK\tFalse positives\tCkpt size\tFull snapshot")
	for _, r := range rows {
		fp := "none"
		if len(r.FalsePositives) > 0 {
			fp = strings.Join(r.FalsePositives, ", ")
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%s\t%s\t%s\n",
			r.Name, r.Iterations, r.Sufficient, fp, fmtBytes(r.CkptBytes), fmtBytes(r.SnapBytes))
	}
	w.Flush()
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}
