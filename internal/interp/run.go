package interp

import (
	"bytes"

	"autocheck/internal/ir"
	"autocheck/internal/lower"
	"autocheck/internal/minic"
	"autocheck/internal/trace"
)

// Compile parses, checks, and lowers a mini-C source program.
func Compile(src string) (*ir.Module, error) {
	f, err := minic.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return lower.Module(f)
}

// RunProgram executes a module without tracing and returns its output.
func RunProgram(mod *ir.Module) (string, error) {
	return New(mod).Run()
}

// TraceProgram executes a module with tracing enabled, returning the
// dynamic instruction execution trace and the program output. The records
// are the caller's: each is cloned into a trace.RecordBatch as it is
// emitted.
func TraceProgram(mod *ir.Module) ([]trace.Record, string, error) {
	m := New(mod)
	var b trace.RecordBatch
	m.sink = b.Add
	out, err := m.Run()
	return b.Recs, out, err
}

// TraceProgramTo executes a module with the tracer wired straight into a
// trace encoder (text or binary): records are serialized as they are
// produced and never materialized as a []trace.Record. The writer is
// flushed before returning.
func TraceProgramTo(mod *ir.Module, w trace.RecordWriter) (string, error) {
	return New(mod).traceTo(w)
}

func (m *Machine) traceTo(w trace.RecordWriter) (string, error) {
	var werr error
	m.sink = func(recs []trace.Record, _ []uint32) {
		if werr == nil {
			werr = w.Write(&recs[0])
		}
	}
	out, err := m.Run()
	if err == nil {
		err = werr
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return out, err
}

// Observer consumes dynamic records as they are produced — the direct
// tracer→analysis feed. core.Engine implements it, so an online analysis
// needs no trace bytes at all (the paper's §IX mode).
//
// The record and its Ops/Result storage are the emitting instruction's
// template, valid only for the duration of the call and read-only: the
// next emission of the same instruction overwrites it in place (see
// Machine.TraceInto). An observer that keeps a record copies it with
// Record.Clone.
type Observer interface {
	Observe(r *trace.Record)
}

// BatchObserver is an Observer that also takes each record's template id:
// ObserveBatch gets recs and ids, ids[i] being recs[i]'s, and records with
// one id, on one machine, have the same static half
// (trace.RecordBatch.TemplateIDs), so an observer can work out what
// depends on that half once per template instead of once per record. The
// tracer calls it once per record, a one-record recs, in execution order;
// like a single record, recs and ids are valid only for the duration of
// the call. core.Engine implements it.
type BatchObserver interface {
	Observer
	ObserveBatch(recs []trace.Record, ids []uint32)
}

// TraceInto makes obs the machine's trace sink: each record goes to
// ObserveBatch, with its template id, when obs is a BatchObserver, and to
// Observe otherwise. The emit path is the same either way. A record is
// handed on as its instruction runs, written in place into the
// instruction's template, so every record has arrived by the time Run
// returns, on every exit path.
func (m *Machine) TraceInto(obs Observer) {
	if o, ok := obs.(BatchObserver); ok {
		m.sink = o.ObserveBatch
		return
	}
	m.sink = func(recs []trace.Record, _ []uint32) { obs.Observe(&recs[0]) }
}

// TraceProgramInto executes a module with the tracer wired straight into
// obs: records flow to the observer as the program runs and are never
// encoded, written, or materialized.
func TraceProgramInto(mod *ir.Module, obs Observer) (string, error) {
	m := New(mod)
	m.TraceInto(obs)
	return m.Run()
}

// TraceProgramBinary executes a module emitting the compact binary trace
// directly (no intermediate record slice), returning the encoded trace
// and the program output.
func TraceProgramBinary(mod *ir.Module) ([]byte, string, error) {
	var buf bytes.Buffer
	out, err := TraceProgramTo(mod, trace.NewBinaryWriter(&buf))
	if err != nil {
		return nil, out, err
	}
	return buf.Bytes(), out, nil
}
