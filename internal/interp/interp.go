// Package interp executes IR modules in a simulated address space and emits
// the dynamic instruction execution trace that AutoCheck consumes. It plays
// the role of both the target machine and LLVM-Tracer in the paper's
// toolchain (§II-C): every executed instruction produces one trace block
// with dynamic operand values, memory addresses, and register names.
//
// The machine is deterministic: the same module produces the same trace,
// the same addresses, and the same output on every run, which is what makes
// checkpoint/restart validation by output comparison sound (§VI-B).
package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// ErrFailStop is returned when a hook injects a fail-stop failure
// (the moral equivalent of the paper's raise(SIGTERM)).
var ErrFailStop = errors.New("interp: injected fail-stop failure")

// ErrStepLimit is returned when execution exceeds MaxSteps.
var ErrStepLimit = errors.New("interp: step limit exceeded")

const (
	globalBase = 0x0000000000600000 // globals grow upward from here
	stackBase  = 0x00007ffc00000000 // stack grows downward from here
)

// Frame is one activation record. A frame belongs to the machine: it is
// valid while its call is active (a BlockHook may inspect it) and is
// recycled for a later call after it returns.
type Frame struct {
	Fn   *ir.Function
	code *funcCode
	bi   int           // the block being executed, by number in code
	cur  []instr       // its entries: code.blocks[bi].code
	idx  int           // the next instruction's index in the block
	regs []trace.Value // register file: indexed by ir.Instr.ID, then the parameters from code.nregs on
	sp   uint64        // stack pointer at frame entry (restored on return)
	call *instr        // the caller's Call; nil for main
}

// block is the block f is executing.
func (f *Frame) block() *ir.Block { return f.code.blocks[f.bi].blk }

// Watch counts the writes that land in one registered range of a
// machine's memory (Machine.Watch). The checkpoint layer keeps one per
// protected variable: an unchanged count proves the variable's cells are
// what they were when it last read them. A Watch does not refer back to
// its machine, so holding one keeps no memory alive.
type Watch struct {
	base, size uint64 // the bytes [base, base+size), modulo 2^64
	writes     uint64
}

// Writes returns how many WriteCell and WriteRange calls have touched the
// range since it was registered.
func (w *Watch) Writes() uint64 { return w.writes }

// Machine executes a module.
type Machine struct {
	Mod *ir.Module
	// Mem is the simulated memory, one entry per 8-byte cell that was ever
	// written: a trace.Value, the cell's kind and its 8-byte payload (read
	// with Int(), Float() or Addr()). Reads may index it; writes go through
	// WriteCell or WriteRange, which is what keeps every Watch exact.
	Mem map[uint64]trace.Value

	// BlockHook, if non-nil, runs on entry to every basic block. Returning
	// an error aborts execution with that error (use ErrFailStop to model
	// the paper's raise(SIGTERM) validation).
	BlockHook func(m *Machine, f *Frame, blk *ir.Block) error
	// MaxSteps bounds execution (0 means the 200M default).
	MaxSteps int64
	// Rank and Ranks are the SPMD identity reported by the myrank() and
	// nranks() builtins (defaults: rank 0 of 1).
	Rank, Ranks int

	Steps   int64
	dynID   int64
	out     strings.Builder
	frames  []*Frame   // the call stack; frames[len(frames):cap(frames)] are popped frames awaiting reuse
	watches []*Watch   // registered ranges; empty on a machine nobody checkpoints
	sink    trace.Sink // takes each emitted record and its template id (see TraceInto); nil: no tracing
	globals []uint64   // the address of each of Mod.Globals, by position
	sp      uint64
	rng     uint64
	fnAddr  map[string]uint64
	nextFn  uint64
	codes   map[*ir.Function]*funcCode // each function's code table, once called or called from built code
	ntmpl   uint32                     // templates built: the next one's id
	// Slabs the code tables and the templates are cut from, so a machine
	// allocates per slab, not per instruction.
	lens       slabLens
	codeSlab   []instr
	argSlab    []operand
	strideSlab []int64
	opSlab     []trace.Operand
	dynSlab    []dynOperand
}

// funcAddr returns a stable fake code address for a function name, used in
// Call records the way LLVM-Tracer prints the callee's address+name
// (Fig. 6(a)/(b)).
func (m *Machine) funcAddr(name string) uint64 {
	if a, ok := m.fnAddr[name]; ok {
		return a
	}
	if m.fnAddr == nil {
		m.fnAddr = make(map[string]uint64)
		m.nextFn = 0x400000
	}
	m.nextFn += 0x40
	m.fnAddr[name] = m.nextFn
	return m.nextFn
}

// New creates a machine for a module, laying out globals deterministically.
func New(mod *ir.Module) *Machine {
	m := &Machine{
		Mod:     mod,
		Mem:     make(map[uint64]trace.Value),
		globals: make([]uint64, len(mod.Globals)),
		lens:    slabLensOf(mod),
		sp:      stackBase,
		rng:     0x9E3779B97F4A7C15,
	}
	next := uint64(globalBase)
	for i, g := range mod.Globals {
		m.globals[i] = next
		next += align8(g.Elem.Size())
	}
	return m
}

func align8(n int64) uint64 {
	if n <= 0 {
		return 8
	}
	return uint64((n + 7) &^ 7)
}

// Output returns everything printed so far.
func (m *Machine) Output() string { return m.out.String() }

// GlobalAddr returns the address of a named global variable.
func (m *Machine) GlobalAddr(name string) (uint64, bool) {
	for i, g := range m.Mod.Globals {
		if g.Name == name {
			return m.globals[i], true
		}
	}
	return 0, false
}

// readCell reads one 8-byte cell, coerced to class c; a cell never
// written reads as zero of c's kind (an integer unless c is a float).
func (m *Machine) readCell(addr uint64, c valueClass) trace.Value {
	v, ok := m.Mem[addr]
	if !ok {
		if c == classFloat {
			return trace.FloatValue(0)
		}
		return trace.IntValue(0)
	}
	return c.coerce(v)
}

// WriteCell writes one 8-byte cell.
func (m *Machine) WriteCell(addr uint64, v trace.Value) {
	if len(m.watches) != 0 {
		m.noteWrite(addr, 8)
	}
	m.Mem[addr] = v
}

// ReadRange copies n cells starting at addr (for checkpointing).
func (m *Machine) ReadRange(addr uint64, cells int64) []trace.Value {
	out := make([]trace.Value, cells)
	for i := int64(0); i < cells; i++ {
		if v, ok := m.Mem[addr+uint64(i*8)]; ok {
			out[i] = v
		} else {
			out[i] = trace.IntValue(0)
		}
	}
	return out
}

// WriteRange restores cells starting at addr (for checkpoint recovery).
func (m *Machine) WriteRange(addr uint64, vals []trace.Value) {
	if len(m.watches) != 0 {
		m.noteWrite(addr, uint64(len(vals))*8)
	}
	for i, v := range vals {
		m.Mem[addr+uint64(i*8)] = v
	}
}

// Watch registers the cells-long range at base and returns its write
// counter; the same range always yields the same Watch, so several
// checkpoint contexts over one machine share it. A watch lives as long as
// its machine. Before the first one is registered a store pays one
// branch; after, one range test per watch.
func (m *Machine) Watch(base uint64, cells int64) *Watch {
	size := uint64(cells) * 8
	for _, w := range m.watches {
		if w.base == base && w.size == size {
			return w
		}
	}
	w := &Watch{base: base, size: size}
	m.watches = append(m.watches, w)
	return w
}

// noteWrite advances every watch the bytes [addr, addr+size) touch. Two
// ranges on the 2^64 address circle meet exactly when one starts inside
// the other, which also covers a write that wraps past the last address.
func (m *Machine) noteWrite(addr, size uint64) {
	for _, w := range m.watches {
		if addr-w.base < w.size || w.base-addr < size {
			w.writes++
		}
	}
}

// Reserve sizes an empty memory for the cells a restart is about to write,
// so the map is built once instead of grown by rehashing. A machine that
// already holds cells is left as it is.
func (m *Machine) Reserve(cells int) {
	if len(m.Mem) == 0 && cells > 0 {
		m.Mem = make(map[uint64]trace.Value, cells)
	}
}

// Run executes main to completion and returns the printed output. The
// trace sink is handed each record as its instruction runs, so however Run
// ends — normally, on a runtime error, ErrFailStop from a hook, or
// ErrStepLimit — every record emitted has been delivered.
func (m *Machine) Run() (string, error) {
	err := m.run()
	return m.Output(), err
}

func (m *Machine) run() error {
	if err := m.enterMain(); err != nil {
		return err
	}
	for len(m.frames) > 0 {
		if m.Steps >= m.MaxSteps {
			return ErrStepLimit
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
}

// enterMain sets the default step limit and pushes main's frame.
func (m *Machine) enterMain() error {
	mainFn := m.Mod.Func("main")
	if mainFn == nil {
		return fmt.Errorf("interp: module has no main")
	}
	if m.MaxSteps == 0 {
		m.MaxSteps = 200_000_000
	}
	return m.pushFrame(m.codeOf(mainFn), nil, nil)
}

// pushFrame enters the function of c, called by the instruction call of
// frame caller (both nil for main); the arguments are evaluated in the
// caller, into the callee's parameter registers. Frame and register file
// are those of the last call that ran at this depth, when there was one.
func (m *Machine) pushFrame(c *funcCode, caller *Frame, call *instr) error {
	if c.blocks == nil {
		m.build(c)
	}
	var f *Frame
	if n := len(m.frames); n < cap(m.frames) {
		f = m.frames[:n+1][n]
	}
	if f == nil {
		f = new(Frame)
	}
	regs := f.regs
	if n := c.nregs + len(c.fn.Params); cap(regs) < n {
		regs = make([]trace.Value, n)
	} else {
		regs = regs[:n]
		clear(regs)
	}
	if call != nil {
		for i := range call.args {
			regs[c.nregs+i] = caller.value(&call.args[i])
		}
	}
	*f = Frame{Fn: c.fn, code: c, cur: c.blocks[0].code, regs: regs, sp: m.sp, call: call}
	m.frames = append(m.frames, f)
	if m.BlockHook != nil {
		return m.BlockHook(m, f, c.blocks[0].blk)
	}
	return nil
}

// recordTemplate is the static half of every record one instruction
// emits, a trace.Template: its operands are one per argument, for a Call
// the callee and its parameters, then the result, with every index, size,
// kind and name, and every value that cannot change between executions:
// constants, global addresses and the callee's code address. dyn lists
// the operands whose value each execution reads from its frame. The
// template's id numbers it in the order the machine built it; the emitter
// hands it on with every record (trace.RecordBatch.TemplateIDs).
type recordTemplate struct {
	trace.Template
	dyn   []dynOperand
	built bool
}

// dynOperand says that the value of Ops[pos] is the emitting frame's
// register src.
type dynOperand struct {
	pos, src int
}

// emit hands the record of e, the instruction just executed, to the trace
// sink. The record is the instruction's template, with the values only
// this execution knows written into it in place: the register and
// parameter arguments (a Call's parameters repeat its arguments), the
// result and the dynamic id. So a record costs its dynamic half only, and
// nothing is allocated per record; the next emission of the instruction,
// from this frame or a nested one, overwrites it, which is why a sink may
// use a record only for the call that delivers it. The template lives in
// the instruction's code entry, and the machine builds it the first time
// it emits the instruction: the callee's code address is assigned then,
// in the order calls are first emitted, which a machine that built its
// templates ahead would change.
func (m *Machine) emit(f *Frame, e *instr, result *trace.Value) {
	if m.sink == nil {
		return
	}
	t := &e.tmpl
	if !t.built {
		m.buildTemplate(f, e, result != nil)
	}
	for _, d := range t.dyn {
		t.Ops[d.pos].Value = f.regs[d.src]
	}
	r := &t.Rec[0]
	if result != nil {
		r.Result.Value = *result
	}
	r.DynID = m.dynID
	m.sink(t.Rec[:], t.ID[:])
}

// buildTemplate fills e's template, e executed in frame f.
func (m *Machine) buildTemplate(f *Frame, e *instr, hasResult bool) {
	in := e.in
	n := len(in.Args) // the operands: arguments, callee and parameters, result
	if in.Op == trace.OpCall {
		n++
		if in.Callee != nil {
			n += len(in.Callee.Params)
		}
	}
	if hasResult {
		n++
	}
	t := &e.tmpl
	t.Ops, t.dyn = cut(&m.opSlab, n, m.lens.ops), cut(&m.dynSlab, n, m.lens.ops)
	for i, a := range in.Args {
		_, isConst := a.(*ir.Const)
		t.add(trace.Operand{Index: i + 1, Size: 64, IsReg: !isConst, Name: a.ValueName()}, e.args[i])
	}
	if in.Op == trace.OpCall {
		// The Fig. 6(a)/(b) call record: callee-name operand (index 0), then
		// for a user function its parameter operands (negative indices mark
		// parameters, standing in for LLVM-Tracer's 'f' indicator lines).
		name := in.Builtin
		if in.Callee != nil {
			name = in.Callee.Name
		}
		t.Ops = append(t.Ops, trace.Operand{Index: 0, Size: 64, Value: trace.PtrValue(m.funcAddr(name)), IsReg: false, Name: name})
		if in.Callee != nil {
			for i, p := range in.Callee.Params {
				t.add(trace.Operand{Index: -(i + 1), Size: 64, IsReg: true, Name: p.Name}, e.args[i])
			}
		}
	}
	if hasResult {
		size := 64
		if in.Op == trace.OpAlloca {
			// Alloca result size carries the allocation size in bits, so the
			// analysis can build exact address intervals for local variables
			// (the paper's Challenge 2 address table).
			size = int(in.AllocElem.Size() * 8)
		}
		t.Ops = append(t.Ops, trace.Operand{Index: 0, Size: size, IsReg: true, Name: in.ValueName()})
	}
	t.Lay(&trace.Record{Line: in.Line, Func: f.Fn.Name, Block: f.block().Name, Opcode: in.Op}, t.Ops, hasResult, m.ntmpl)
	t.built = true
	m.ntmpl++
}

// add appends o, whose value is that of a: filled in when a is a
// constant, listed in t.dyn when the frame holds it.
func (t *recordTemplate) add(o trace.Operand, a operand) {
	if a.reg >= 0 {
		t.dyn = append(t.dyn, dynOperand{pos: len(t.Ops), src: a.reg})
	} else {
		o.Value = a.val
	}
	t.Ops = append(t.Ops, o)
}

func (m *Machine) step() error {
	f := m.frames[len(m.frames)-1]
	e := &f.cur[f.idx]
	m.Steps++
	m.dynID++
	switch e.op {
	case trace.OpAlloca:
		m.sp -= e.size
		res := trace.PtrValue(m.sp)
		f.regs[e.dst] = res
		m.emit(f, e, &res)
	case trace.OpLoad:
		v := m.readCell(f.value(&e.args[0]).Addr(), e.class)
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpStore:
		val := f.value(&e.args[0])
		m.WriteCell(f.value(&e.args[1]).Addr(), e.class.coerce(val))
		m.emit(f, e, nil)
	case trace.OpGetElementPtr:
		addr := f.value(&e.args[0]).Addr()
		for k, s := range e.strides {
			addr += uint64(f.value(&e.args[k+1]).Int() * s)
		}
		v := trace.PtrValue(addr)
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpBitCast:
		v := f.value(&e.args[0])
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpSIToFP:
		v := trace.FloatValue(float64(f.value(&e.args[0]).Int()))
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpFPToSI:
		v := trace.IntValue(int64(f.value(&e.args[0]).Float()))
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpICmp, trace.OpFCmp:
		x := f.value(&e.args[0])
		y := f.value(&e.args[1])
		v := trace.IntValue(boolToInt(compare(e.in, x, y)))
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpAdd, trace.OpSub, trace.OpMul, trace.OpSDiv, trace.OpUDiv,
		trace.OpSRem, trace.OpURem, trace.OpFAdd, trace.OpFSub, trace.OpFMul,
		trace.OpFDiv, trace.OpFRem:
		x := f.value(&e.args[0])
		y := f.value(&e.args[1])
		v, err := arith(e.op, x, y)
		if err != nil {
			return fmt.Errorf("%w at %s line %d", err, f.Fn.Name, e.in.Line)
		}
		f.regs[e.dst] = v
		m.emit(f, e, &v)
	case trace.OpBr:
		target := e.succ[0]
		if len(e.args) == 1 && !truthy(f.value(&e.args[0])) {
			target = e.succ[1]
		}
		m.emit(f, e, nil)
		f.bi, f.cur, f.idx = target, f.code.blocks[target].code, 0
		if m.BlockHook != nil {
			if err := m.BlockHook(m, f, f.block()); err != nil {
				return err
			}
		}
		return nil
	case trace.OpRet:
		var ret *trace.Value
		if len(e.args) == 1 {
			v := f.value(&e.args[0])
			ret = &v
		}
		m.emit(f, e, nil)
		m.sp = f.sp // pop the frame's stack storage
		m.frames = m.frames[:len(m.frames)-1]
		if len(m.frames) > 0 {
			caller := m.frames[len(m.frames)-1]
			if f.call != nil && f.call.dst >= 0 && ret != nil {
				caller.regs[f.call.dst] = *ret
			}
			caller.idx++
		}
		return nil
	case trace.OpCall:
		return m.execCall(f, e)
	default:
		return fmt.Errorf("interp: unsupported opcode %s", trace.OpcodeName(e.op))
	}
	f.idx++
	return nil
}

func truthy(v trace.Value) bool {
	switch v.Kind {
	case trace.KindFloat:
		return v.Float() != 0
	case trace.KindPtr:
		return v.Addr() != 0
	default:
		return v.Int() != 0
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func compare(in *ir.Instr, x, y trace.Value) bool {
	if in.Op == trace.OpFCmp || x.Kind == trace.KindFloat || y.Kind == trace.KindFloat {
		a, b := asFloat(x), asFloat(y)
		switch in.Pred {
		case ir.CmpEQ:
			return a == b
		case ir.CmpNE:
			return a != b
		case ir.CmpLT:
			return a < b
		case ir.CmpLE:
			return a <= b
		case ir.CmpGT:
			return a > b
		default:
			return a >= b
		}
	}
	a, b := asInt(x), asInt(y)
	switch in.Pred {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpLT:
		return a < b
	case ir.CmpLE:
		return a <= b
	case ir.CmpGT:
		return a > b
	default:
		return a >= b
	}
}

func asFloat(v trace.Value) float64 {
	switch v.Kind {
	case trace.KindFloat:
		return v.Float()
	case trace.KindPtr:
		return float64(v.Addr())
	default:
		return float64(v.Int())
	}
}

func asInt(v trace.Value) int64 {
	switch v.Kind {
	case trace.KindFloat:
		return int64(v.Float())
	case trace.KindPtr:
		return int64(v.Addr())
	default:
		return v.Int()
	}
}

var errDivZero = errors.New("interp: integer division by zero")

func arith(op int, x, y trace.Value) (trace.Value, error) {
	switch op {
	case trace.OpAdd:
		return trace.IntValue(asInt(x) + asInt(y)), nil
	case trace.OpSub:
		return trace.IntValue(asInt(x) - asInt(y)), nil
	case trace.OpMul:
		return trace.IntValue(asInt(x) * asInt(y)), nil
	case trace.OpSDiv, trace.OpUDiv:
		if asInt(y) == 0 {
			return trace.Value{}, errDivZero
		}
		return trace.IntValue(asInt(x) / asInt(y)), nil
	case trace.OpSRem, trace.OpURem:
		if asInt(y) == 0 {
			return trace.Value{}, errDivZero
		}
		return trace.IntValue(asInt(x) % asInt(y)), nil
	case trace.OpFAdd:
		return trace.FloatValue(asFloat(x) + asFloat(y)), nil
	case trace.OpFSub:
		return trace.FloatValue(asFloat(x) - asFloat(y)), nil
	case trace.OpFMul:
		return trace.FloatValue(asFloat(x) * asFloat(y)), nil
	case trace.OpFDiv:
		return trace.FloatValue(asFloat(x) / asFloat(y)), nil
	case trace.OpFRem:
		return trace.FloatValue(math.Mod(asFloat(x), asFloat(y))), nil
	}
	return trace.Value{}, fmt.Errorf("interp: bad arithmetic opcode %d", op)
}

func (m *Machine) execCall(f *Frame, e *instr) error {
	if e.callee == nil {
		v, err := m.builtin(f, e)
		if err != nil {
			return err
		}
		if e.dst >= 0 {
			f.regs[e.dst] = v
			m.emit(f, e, &v)
		} else {
			m.emit(f, e, nil)
		}
		f.idx++
		return nil
	}
	m.emit(f, e, nil)
	return m.pushFrame(e.callee, f, e)
}

func (m *Machine) builtin(f *Frame, e *instr) (trace.Value, error) {
	var buf [4]trace.Value // every builtin but a long print fits: no allocation per call
	args := buf[:0]
	for i := range e.args {
		args = append(args, f.value(&e.args[i]))
	}
	switch e.in.Builtin {
	case "print":
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.String()
		}
		m.out.WriteString(strings.Join(parts, " "))
		m.out.WriteByte('\n')
		return trace.Value{}, nil
	case "sqrt":
		return trace.FloatValue(math.Sqrt(asFloat(args[0]))), nil
	case "fabs":
		return trace.FloatValue(math.Abs(asFloat(args[0]))), nil
	case "pow":
		return trace.FloatValue(math.Pow(asFloat(args[0]), asFloat(args[1]))), nil
	case "exp":
		return trace.FloatValue(math.Exp(asFloat(args[0]))), nil
	case "rand":
		// Deterministic xorshift64*: reproducible traces and outputs.
		m.rng ^= m.rng >> 12
		m.rng ^= m.rng << 25
		m.rng ^= m.rng >> 27
		return trace.IntValue(int64((m.rng * 0x2545F4914F6CDD1D) >> 33)), nil
	case "myrank":
		return trace.IntValue(int64(m.Rank)), nil
	case "nranks":
		if m.Ranks <= 0 {
			return trace.IntValue(1), nil
		}
		return trace.IntValue(int64(m.Ranks)), nil
	}
	return trace.Value{}, fmt.Errorf("interp: unknown builtin %s", e.in.Builtin)
}
