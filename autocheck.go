// Package autocheck is the public API of the AutoCheck reproduction: a
// tool that automatically identifies the critical variables an HPC
// application must checkpoint to restart correctly after a fail-stop
// failure (Fu et al., "AutoCheck: Automatically Identifying Variables for
// Checkpointing by Data Dependency Analysis", SC 2024).
//
// The pipeline mirrors the paper's Fig. 2. Given a dynamic instruction
// execution trace and the location of the main computation loop:
//
//  1. pre-processing identifies the Main-Loop-Input (MLI) variables —
//     variables defined before but used inside the loop;
//  2. data dependency analysis tracks the reg-var and reg-reg maps
//     on-the-fly and builds a contracted data dependency graph over the
//     MLI variables;
//  3. identification classifies critical variables as Write-After-Read,
//     Read-After-Partially-Overwritten, or Outcome, and adds the outermost
//     loop's induction variable (Index).
//
// Because the original toolchain (LLVM/Clang + LLVM-Tracer + FTI + BLCR)
// is not available to a pure-Go build, the module also contains the full
// substrate: a mini-C frontend and IR (internal/minic, internal/ir,
// internal/lower), a tracing interpreter that plays LLVM-Tracer's role
// (internal/interp), loop analysis (internal/cfg), an FTI-like C/R library
// with a BLCR-like full-snapshot baseline (internal/checkpoint), the
// fail-stop validation harness (internal/validate), and mini-C ports of
// the paper's 14 benchmarks (internal/progs).
//
// Quick start:
//
//	mod, _ := autocheck.CompileProgram(src)
//	recs, _, _ := autocheck.TraceProgram(mod)
//	res, _ := autocheck.Analyze(recs, autocheck.LoopSpec{
//	    Function: "main", StartLine: 17, EndLine: 25,
//	}, autocheck.DefaultOptions())
//	for _, c := range res.Critical {
//	    fmt.Printf("checkpoint %s (%s)\n", c.Name, c.Type)
//	}
package autocheck

import (
	"io"

	"autocheck/internal/core"
	"autocheck/internal/interp"
	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// Re-exported core types; see the core package for field documentation.
type (
	// LoopSpec locates the main computation loop (function + line range).
	LoopSpec = core.LoopSpec
	// Options tunes the analysis (global collection, DDG construction, ...).
	Options = core.Options
	// Result is the analysis output: MLI variables, critical variables,
	// timing breakdown, and optional DDGs.
	Result = core.Result
	// CriticalVar is one variable to checkpoint.
	CriticalVar = core.CriticalVar
	// Provenance explains one variable's classification decision (set in
	// Result.Provenance with Options.Explain).
	Provenance = core.Provenance
	// NoLoopError reports a LoopSpec that matched nothing in the trace
	// (function, line range, and records scanned are in the message).
	NoLoopError = core.NoLoopError
	// DependencyType classifies why a variable is critical.
	DependencyType = core.DependencyType
	// Record is one dynamic trace instruction block.
	Record = trace.Record
	// Module is a compiled program.
	Module = ir.Module
	// RecordWriter is a trace encoder sink (text or binary); see
	// NewTraceWriter.
	RecordWriter = trace.RecordWriter
	// TraceReader is a streaming trace decoder (text or binary); see
	// NewTraceReader.
	TraceReader = trace.Reader
	// TraceFormat selects a trace encoding (TextFormat or BinaryFormat).
	TraceFormat = trace.Format
)

// Trace encodings.
const (
	TextFormat   = trace.FormatText
	BinaryFormat = trace.FormatBinary
)

// NewTraceWriter returns a trace encoder in the chosen format over w,
// usable as the sink of TraceProgramTo.
func NewTraceWriter(w io.Writer, f TraceFormat) RecordWriter {
	return trace.NewRecordWriter(w, f)
}

// NewTraceReader sniffs the stream's encoding and returns a reader whose
// ReadInto hands each record, with its template id, to a sink as it is
// decoded; a record is valid only during that call (a sink that keeps
// one keeps a Record.Clone). The stream is decoded through a bounded
// window, so memory does not grow with the trace; a record beyond 4 MiB
// is an error naming its byte offset (AnalyzeBytes has no cap). After
// any error the reader repeats it and hands on no further records.
func NewTraceReader(r io.Reader) (TraceReader, TraceFormat, error) {
	return trace.NewAutoReader(r)
}

// Dependency types (paper §IV-C, Fig. 7).
const (
	WAR     = core.WAR
	Outcome = core.Outcome
	RAPO    = core.RAPO
	Index   = core.Index
)

// DefaultOptions returns the recommended analysis configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Analyze runs the three-module AutoCheck pipeline over parsed trace
// records.
func Analyze(recs []Record, spec LoopSpec, opts Options) (*Result, error) {
	return core.Analyze(recs, spec, opts)
}

// AnalyzeBytes analyzes an in-memory trace of either format: the Engine
// fed each of the bytes' records in place as it is decoded. No []Record
// is ever materialized, so memory stays O(variables) beyond the bytes
// themselves, and no record size is capped. (The paper's §V-A parallel
// read is across traces: AnalyzeMany.)
func AnalyzeBytes(data []byte, spec LoopSpec, opts Options) (*Result, error) {
	return core.AnalyzeBytes(data, spec, opts)
}

// AnalyzeFile reads and analyzes a trace file (the paper's primary usage
// mode: trace generation and analysis as separate steps). The file is
// streamed from disk into the Engine through a bounded window, so memory
// is O(variables) whatever the file's size; as with NewTraceReader, a
// single record beyond 4 MiB is an error naming its byte offset (load
// such a trace whole and use AnalyzeBytes, which has no cap).
func AnalyzeFile(path string, spec LoopSpec, opts Options) (*Result, error) {
	return core.AnalyzeFile(path, spec, opts)
}

// Engine is the single incremental analysis core every mode runs: feed
// it records a batch at a time via ObserveBatch, with the batch's
// template ids or nil (or one at a time via Observe — the same code), and
// call Finish for the Result. Records need
// only stay valid for the duration of the call; the engine keeps nothing
// of them. Analyze, AnalyzeBytes, AnalyzeFile and AnalyzeMany are
// adapters that feed it, and fed straight from the tracer it is the
// paper's §IX online mode, where AutoCheck runs inside the
// instrumentation itself. Memory is O(variables) however long the loop's
// callee excursions or the program's epilogue (with opts.BuildDDG, the
// graph itself is O(records)).
type Engine = core.Engine

// NewEngine prepares an analysis session.
func NewEngine(spec LoopSpec, opts Options) (*Engine, error) {
	return core.NewEngine(spec, opts)
}

// AnalyzeProgramOnline executes a module with the engine wired directly
// into the tracer: no trace is materialized, encoded, or parsed. It
// returns the analysis result and the program's printed output.
func AnalyzeProgramOnline(mod *Module, spec LoopSpec, opts Options) (*Result, string, error) {
	eng, err := core.NewEngine(spec, opts)
	if err != nil {
		return nil, "", err
	}
	out, err := interp.TraceProgramInto(mod, eng)
	if err != nil {
		return nil, out, err
	}
	res, err := eng.Finish()
	return res, out, err
}

// AnalysisInput names one independent trace for AnalyzeMany: a spec plus
// exactly one source (Records, Data, or Path).
type AnalysisInput = core.Input

// AnalyzeMany analyzes independent traces concurrently, one engine per
// trace, with at most workers engines in flight (<= 0 means GOMAXPROCS).
// Results are positional; per-input failures leave a nil slot and are
// joined into the returned error.
func AnalyzeMany(inputs []AnalysisInput, workers int) ([]*Result, error) {
	return core.AnalyzeMany(inputs, workers)
}

// CompileProgram compiles a mini-C source program to IR.
func CompileProgram(src string) (*Module, error) { return interp.Compile(src) }

// TraceProgram executes a module and returns its dynamic instruction
// execution trace and printed output (the LLVM-Tracer role).
func TraceProgram(mod *Module) ([]Record, string, error) { return interp.TraceProgram(mod) }

// RunProgram executes a module without tracing.
func RunProgram(mod *Module) (string, error) { return interp.RunProgram(mod) }

// EncodeTrace renders records in the textual LLVM-Tracer-style block
// format; ParseTrace reads it back.
func EncodeTrace(recs []Record) []byte { return trace.EncodeAll(recs) }

// EncodeTraceBinary renders records in the compact binary trace format
// (magic "ACTB": varint fields plus an interned string table), typically
// 2-3x smaller and several times faster to parse than the text format.
func EncodeTraceBinary(recs []Record) []byte { return trace.EncodeBinary(recs) }

// ParseTrace parses an in-memory trace of either format, detected by its
// magic bytes.
func ParseTrace(data []byte) ([]Record, error) { return trace.ParseBytes(data) }

// TraceProgramBinary executes a module with the tracer emitting the
// compact binary encoding directly: no []Record is materialized.
func TraceProgramBinary(mod *Module) ([]byte, string, error) {
	return interp.TraceProgramBinary(mod)
}

// TraceProgramTo executes a module with the tracer streaming into any
// trace encoder (see NewTraceWriter).
func TraceProgramTo(mod *Module, w RecordWriter) (string, error) {
	return interp.TraceProgramTo(mod, w)
}
