package interp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"autocheck/internal/ir"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// The template emitter against the emitter it replaced. refTracer.emit is
// the body Machine.emit had when it built every operand of every record
// from the IR — verbatim, except that it appends to a batch of its own
// that is never handed on. referenceRun steps a machine that has no trace
// sink of its own and calls it wherever Machine.step emits, so a module
// traced both ways must give the same records, field for field, the same
// output and the same error.

// refTracer is the reference emitter's state: its machine and a batch
// that keeps every record (the arena may move, but earlier records keep
// the array they were written into).
type refTracer struct {
	m     *Machine
	batch trace.RecordBatch
}

// emit appends the record of the instruction just executed to the
// reference batch — one operand per argument, for a Call the callee and
// its parameters, then the result.
func (rt *refTracer) emit(f *Frame, in *ir.Instr, result *trace.Value) {
	m := rt.m
	b := &rt.batch
	for i, a := range in.Args {
		_, isConst := a.(*ir.Const)
		b.AppendOperand(trace.Operand{Index: i + 1, Size: 64, Value: eval(m, f, a), IsReg: !isConst, Name: a.ValueName()})
	}
	if in.Op == trace.OpCall {
		// The Fig. 6(a)/(b) call record: callee-name operand (index 0), then
		// for a user function its parameter operands (negative indices mark
		// parameters, standing in for LLVM-Tracer's 'f' indicator lines).
		name := in.Builtin
		if in.Callee != nil {
			name = in.Callee.Name
		}
		b.AppendOperand(trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(m.funcAddr(name)), IsReg: false, Name: name})
		if in.Callee != nil {
			for i, p := range in.Callee.Params {
				b.AppendOperand(trace.Operand{Index: -(i + 1), Size: 64, Value: eval(m, f, in.Args[i]), IsReg: true, Name: p.Name})
			}
		}
	}
	if result != nil {
		size := 64
		if in.Op == trace.OpAlloca {
			// Alloca result size carries the allocation size in bits, so the
			// analysis can build exact address intervals for local variables
			// (the paper's Challenge 2 address table).
			size = int(in.AllocElem.Size() * 8)
		}
		b.AppendOperand(trace.Operand{Index: 0, Size: size, Value: *result, IsReg: true, Name: in.ValueName()})
	}
	b.AppendRecord(trace.Record{
		Line:   in.Line,
		Func:   f.Fn.Name,
		Block:  f.block().Name,
		Opcode: in.Op,
		DynID:  m.dynID,
	}, result != nil)
}

// eval is the value of v in frame f, read from the IR: a constant's own,
// a global's address by its position in the module, and a parameter's or
// an instruction's register.
func eval(m *Machine, f *Frame, v ir.Value) trace.Value {
	switch x := v.(type) {
	case *ir.Const:
		if ir.IsFloat(x.Typ) {
			return trace.FloatValue(x.F)
		}
		return trace.IntValue(x.I)
	case *ir.Global:
		for i, g := range m.Mod.Globals {
			if g == x {
				return trace.PtrValue(m.globals[i])
			}
		}
		return trace.PtrValue(0)
	case *ir.Param:
		return f.regs[f.Fn.NumRegs()+x.Index]
	case *ir.Instr:
		return f.regs[x.ID]
	}
	panic(fmt.Sprintf("interp: unknown value %T", v))
}

// referenceRun is Machine.Run for a machine without a trace sink, with
// the reference emitter called after every step that emitted a record.
// A step emits unless it failed before its record was complete, which
// only a runtime error does: a BlockHook's error arrives after the Br or
// Call record. The emitter sees the frame as it was before the step —
// its block, and its register file, which now also holds the result —
// so a Br's record names the block it leaves and a Ret's the frame it
// pops.
func referenceRun(m *Machine) ([]trace.Record, string, error) {
	rt := &refTracer{m: m}
	hookFailed := false
	if hook := m.BlockHook; hook != nil {
		m.BlockHook = func(mm *Machine, f *Frame, blk *ir.Block) error {
			err := hook(mm, f, blk)
			hookFailed = err != nil
			return err
		}
	}
	err := func() error {
		if err := m.enterMain(); err != nil {
			return err
		}
		for len(m.frames) > 0 {
			if m.Steps >= m.MaxSteps {
				return ErrStepLimit
			}
			pre := *m.frames[len(m.frames)-1]
			in := pre.block().Instrs[pre.idx]
			hookFailed = false
			err := m.step()
			if err == nil || hookFailed {
				var result *trace.Value
				if in.Producer() && !(in.Op == trace.OpCall && in.Callee != nil) {
					result = &pre.regs[in.ID]
				}
				rt.emit(&pre, in, result)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}()
	return rt.batch.Recs, m.Output(), err
}

// templateRun traces m with the machine's own emitter.
func templateRun(m *Machine) ([]trace.Record, string, error) {
	var sink cloneSink
	m.TraceInto(&sink)
	out, err := m.Run()
	return sink.recs, out, err
}

// sameTrace reports how two traced runs of one module differ, or "".
func sameTrace(got, want []trace.Record, gotOut, wantOut string, gotErr, wantErr error) string {
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if gotOut != wantOut {
		return fmt.Sprintf("output %q, reference %q", gotOut, wantOut)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("record %d = %s, reference %s", i, got[i].String(), want[i].String())
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, reference %d", len(got), len(want))
	}
	return ""
}

// checkAgainstReference traces mod on two fresh machines, configured
// alike by setup, and fails t unless they agree; it returns the number
// of records and the template run's error.
func checkAgainstReference(t *testing.T, label string, mod *ir.Module, setup func(*Machine)) (int, error) {
	t.Helper()
	tm, rm := New(mod), New(mod)
	setup(tm)
	setup(rm)
	got, gotOut, gotErr := templateRun(tm)
	want, wantOut, wantErr := referenceRun(rm)
	if d := sameTrace(got, want, gotOut, wantOut, gotErr, wantErr); d != "" {
		t.Errorf("%s: %s", label, d)
	}
	return len(got), gotErr
}

func noSetup(*Machine) {}

// failAfter makes a machine's BlockHook fail on block entry n+1.
func failAfter(n int) func(*Machine) {
	return func(m *Machine) {
		blocks := 0
		m.BlockHook = func(*Machine, *Frame, *ir.Block) error {
			if blocks++; blocks > n {
				return ErrFailStop
			}
			return nil
		}
	}
}

// TestTemplateEmitterMatchesReference: the 14 ports at scales 0 and 4,
// traced to the end, cut short by the step limit inside a block, and cut
// short by a BlockHook's fail-stop, give the reference emitter's records.
func TestTemplateEmitterMatchesReference(t *testing.T) {
	for _, b := range progs.All() {
		for _, scale := range []int{0, 4} {
			mod, err := Compile(b.Source(scale))
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			label := fmt.Sprintf("%s scale %d", b.Name, scale)
			if n, err := checkAgainstReference(t, label, mod, noSetup); err != nil || n == 0 {
				t.Fatalf("%s: %d records, err %v", label, n, err)
			}

			// The first limit past 2,000 steps that stops a frame inside a
			// block, after its first instruction.
			limit := int64(2000)
			for ; ; limit++ {
				m := New(mod)
				m.MaxSteps = limit
				if _, err := m.Run(); !errors.Is(err, ErrStepLimit) {
					t.Fatalf("%s: %d steps: err %v, want ErrStepLimit", label, limit, err)
				}
				if m.frames[len(m.frames)-1].idx > 0 {
					break
				}
			}
			if _, err := checkAgainstReference(t, label+" step limit", mod, func(m *Machine) { m.MaxSteps = limit }); !errors.Is(err, ErrStepLimit) {
				t.Errorf("%s: step limit %d: err %v", label, limit, err)
			}

			if _, err := checkAgainstReference(t, label+" fail-stop", mod, failAfter(300)); !errors.Is(err, ErrFailStop) {
				t.Errorf("%s: fail-stop: err %v", label, err)
			}
		}
	}
}

// TestTemplatesArePerMachine: templates hold a machine's own code and
// global addresses, so modules traced back to back, each on a fresh
// machine, and a module traced again after another, each give the
// reference records.
func TestTemplatesArePerMachine(t *testing.T) {
	ports := progs.All()
	a, b := ports[0], ports[len(ports)-1]
	first := make(map[string]int)
	for _, p := range []*progs.Benchmark{a, b, a, b} {
		mod := compilePort(t, p)
		n, err := checkAgainstReference(t, p.Name, mod, noSetup)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if k, ok := first[p.Name]; ok && k != n {
			t.Errorf("%s: %d records traced again, %d the first time", p.Name, n, k)
		}
		first[p.Name] = n
	}
}

// FuzzCompileTrace runs mini-C source through the front end and a
// bounded traced run: whatever compiles traces to the reference
// emitter's records, or fails with its error, and never panics.
func FuzzCompileTrace(f *testing.F) {
	for _, b := range progs.All() {
		f.Add(b.Source(0))
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := Compile(src)
		if err != nil {
			return
		}
		checkAgainstReference(t, "traced run", mod, func(m *Machine) { m.MaxSteps = 20_000 })
	})
}

// inPlaceSink is a BatchObserver that checks each record while the call
// that delivers it lasts — the only time the contract keeps it valid —
// against the reference emitter's record at the same position. The
// tracer writes a record into its instruction's template, so a record
// compared after its call would already hold a later emission's values.
type inPlaceSink struct {
	want  []trace.Record
	n     int    // records delivered
	diffs string // the first mismatch, or ""
}

func (s *inPlaceSink) Observe(*trace.Record) {
	panic("the tracer calls ObserveBatch on a BatchObserver")
}

func (s *inPlaceSink) ObserveBatch(recs []trace.Record, ids []uint32) {
	if s.diffs != "" {
		return
	}
	switch {
	case len(recs) != 1 || len(ids) != 1:
		s.diffs = fmt.Sprintf("call %d: %d records and %d ids, want one of each", s.n, len(recs), len(ids))
	case s.n >= len(s.want):
		s.diffs = fmt.Sprintf("record %d = %s beyond the reference's %d", s.n, recs[0].String(), len(s.want))
	case !reflect.DeepEqual(recs[0], s.want[s.n]):
		s.diffs = fmt.Sprintf("record %d = %s, reference %s", s.n, recs[0].String(), s.want[s.n].String())
	}
	s.n++
}

// TestRecordsInPlaceMatchReference: inside every ObserveBatch call the
// tracer's one record is the reference emitter's record, field for field,
// on the 14 ports at scales 0 and 4 traced to the end, cut by the step
// limit and cut by a fail-stop, and on a recursive program, whose
// instructions emit from nested frames of one function into one template.
func TestRecordsInPlaceMatchReference(t *testing.T) {
	type run struct {
		label string
		mod   *ir.Module
		setup func(*Machine)
		cut   error // the error the run must end with
	}
	var runs []run
	for _, b := range progs.All() {
		for _, scale := range []int{0, 4} {
			mod, err := Compile(b.Source(scale))
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			label := fmt.Sprintf("%s scale %d", b.Name, scale)
			runs = append(runs,
				run{label, mod, noSetup, nil},
				run{label + " step limit", mod, func(m *Machine) { m.MaxSteps = 2500 }, ErrStepLimit},
				run{label + " fail-stop", mod, failAfter(300), ErrFailStop})
		}
	}
	rec, err := Compile(`
int down(int n, int acc) {
  int local = n * 2;
  if (n == 0) return acc;
  return down(n - 1, acc + local) + local;
}
int main() {
  print(down(12, 0));
  print(down(7, 1));
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"recursion", rec, noSetup, nil}, run{"recursion fail-stop", rec, failAfter(20), ErrFailStop})

	for _, r := range runs {
		rm, tm := New(r.mod), New(r.mod)
		r.setup(rm)
		r.setup(tm)
		want, wantOut, wantErr := referenceRun(rm)
		sink := &inPlaceSink{want: want}
		tm.TraceInto(sink)
		out, err := tm.Run()
		switch {
		case !errors.Is(err, r.cut):
			t.Errorf("%s: err %v, want %v", r.label, err, r.cut)
		case sink.diffs != "":
			t.Errorf("%s: %s", r.label, sink.diffs)
		case sink.n != len(want):
			t.Errorf("%s: %d records, reference %d", r.label, sink.n, len(want))
		case out != wantOut || fmt.Sprint(err) != fmt.Sprint(wantErr):
			t.Errorf("%s: output %q error %v, reference %q %v", r.label, out, err, wantOut, wantErr)
		}
	}
}
