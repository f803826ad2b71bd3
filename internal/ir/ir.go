package ir

import (
	"fmt"
	"strconv"

	"autocheck/internal/trace"
)

// Value is anything an instruction can take as an operand: constants,
// globals, function parameters, and the results of other instructions.
type Value interface {
	Type() Type
	// ValueName returns the symbolic name used in the dynamic trace:
	// a source variable name for named allocas/globals/params, the
	// register number for temporaries, and "" for constants.
	ValueName() string
}

// Const is an immediate integer or float constant.
type Const struct {
	Typ Type
	I   int64
	F   float64
}

// ConstInt returns an i64 constant.
func ConstInt(v int64) *Const { return &Const{Typ: I64, I: v} }

// ConstFloat returns an f64 constant.
func ConstFloat(v float64) *Const { return &Const{Typ: F64, F: v} }

func (c *Const) Type() Type        { return c.Typ }
func (c *Const) ValueName() string { return "" }

// String renders the constant for the IR printer.
func (c *Const) String() string {
	if IsFloat(c.Typ) {
		return trace.FloatValue(c.F).String()
	}
	return strconv.FormatInt(c.I, 10)
}

// Global is a module-level variable. Its value in expressions is a pointer
// to its storage (like an LLVM global).
type Global struct {
	Name string
	Elem Type // the pointee type (scalar or array)
	typ  Type // Ptr(Elem), boxed once by Module.AddGlobal
}

// Type returns the pointer type of the global's address. The interpreter
// asks on every GetElementPtr over a global, so a registered global
// answers from the value AddGlobal boxed instead of boxing a new one.
func (g *Global) Type() Type {
	if g.typ != nil {
		return g.typ
	}
	return Ptr(g.Elem)
}
func (g *Global) ValueName() string { return g.Name }

// Param is a formal parameter of a function. Lowering stores each incoming
// argument into a named alloca, so params are only referenced by the
// entry-block stores (the paper's "parameters substituted for arguments"
// model in Fig. 6(b)).
type Param struct {
	Name  string
	Typ   Type
	Index int // position in the owning function's Params, set by NewFunction
}

func (p *Param) Type() Type        { return p.Typ }
func (p *Param) ValueName() string { return p.Name }

// ICmp/FCmp predicates.
const (
	CmpEQ = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// PredName returns the mnemonic for a comparison predicate.
func PredName(p int) string {
	switch p {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpLT:
		return "lt"
	case CmpLE:
		return "le"
	case CmpGT:
		return "gt"
	case CmpGE:
		return "ge"
	}
	return fmt.Sprintf("pred%d", p)
}

// Instr is a single IR instruction. Op uses the trace package's LLVM 3.4
// opcode numbers. The instruction layouts are:
//
//	Alloca            Name=<var>, Typ=*Elem (Args empty); AllocElem holds Elem
//	Load              Args[0]=ptr; Typ=pointee
//	Store             Args[0]=value, Args[1]=ptr; no result
//	GetElementPtr     Args[0]=base ptr, Args[1:]=indices; Typ=*elem
//	BitCast           Args[0]=ptr; Typ=target ptr type
//	Add..FRem         Args[0], Args[1]; Typ=scalar
//	SIToFP/FPToSI     Args[0]; Typ=target scalar
//	ICmp/FCmp         Args[0], Args[1], Pred; Typ=i64 (0/1)
//	Br                Succs[0]; or Args[0]=cond, Succs[0]=then, Succs[1]=else
//	Call              Args=actual arguments; Callee or Builtin set; Typ=ret
//	Ret               Args[0]=value (optional); no result
type Instr struct {
	Op        int
	Typ       Type // result type; Void/nil for non-producing instructions
	ID        int  // register number within the function (0 = unnumbered)
	Name      string
	Args      []Value
	Succs     []*Block
	Callee    *Function
	Builtin   string // non-empty for builtin calls (print, sqrt, ...)
	Pred      int    // comparison predicate for ICmp/FCmp
	Line      int    // source line; -1 for synthesized instructions
	AllocElem Type   // for Alloca: the allocated (pointee) type
	Parent    *Block
	regName   string // decimal ID of an unnamed producer, rendered once by Function.Number
}

func (in *Instr) Type() Type {
	if in.Typ == nil {
		return Void
	}
	return in.Typ
}

// ValueName implements Value: the alloca/source name if present, else the
// register number.
func (in *Instr) ValueName() string {
	if in.Name != "" {
		return in.Name
	}
	if in.regName != "" {
		return in.regName
	}
	return strconv.Itoa(in.ID)
}

// Producer reports whether the instruction produces a result register.
func (in *Instr) Producer() bool {
	switch in.Op {
	case trace.OpStore, trace.OpBr, trace.OpRet:
		return false
	case trace.OpCall:
		return !IsVoid(in.Type())
	}
	return true
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	return in.Op == trace.OpBr || in.Op == trace.OpRet
}

// Block is a basic block: a label plus a straight-line instruction list
// ending in a terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Parent *Function
}

// Append adds an instruction to the block and sets its parent.
func (b *Block) Append(in *Instr) *Instr {
	in.Parent = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// Terminator returns the block's final instruction if it is a terminator,
// else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the block's successor blocks.
func (b *Block) Succs() []*Block {
	if t := b.Terminator(); t != nil {
		return t.Succs
	}
	return nil
}

// Function is an IR function.
type Function struct {
	Name    string
	Params  []*Param
	Ret     Type
	Blocks  []*Block
	nextID  int
	nextBlk int
}

// NewFunction creates an empty function.
func NewFunction(name string, ret Type, params ...*Param) *Function {
	for i, p := range params {
		p.Index = i
	}
	return &Function{Name: name, Ret: ret, Params: params, nextID: 1}
}

// NumRegs returns one more than the largest register ID Number has handed
// out: the length of a register file indexed by Instr.ID.
func (f *Function) NumRegs() int { return f.nextID }

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a fresh block with a unique label derived from hint.
func (f *Function) NewBlock(hint string) *Block {
	f.nextBlk++
	b := &Block{Name: fmt.Sprintf("%s.%d", hint, f.nextBlk), Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Number assigns a fresh register ID to an instruction that produces a
// value. IDs are per-function, mirroring LLVM's function-local numbering.
func (f *Function) Number(in *Instr) {
	if in.Producer() {
		in.ID = f.nextID
		f.nextID++
		if in.Name == "" {
			// The trace names a temporary by its number on every execution;
			// render it once here instead.
			in.regName = strconv.Itoa(in.ID)
		}
	}
}

// Module is a compiled program: globals plus functions.
type Module struct {
	Globals []*Global
	Funcs   []*Function
	funcIdx map[string]*Function
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{funcIdx: make(map[string]*Function)}
}

// AddGlobal registers a module-level variable.
func (m *Module) AddGlobal(g *Global) *Global {
	g.typ = Ptr(g.Elem)
	m.Globals = append(m.Globals, g)
	return g
}

// AddFunc registers a function.
func (m *Module) AddFunc(f *Function) *Function {
	m.Funcs = append(m.Funcs, f)
	m.funcIdx[f.Name] = f
	return f
}

// Func looks up a function by name.
func (m *Module) Func(name string) *Function {
	if m.funcIdx == nil {
		return nil
	}
	return m.funcIdx[name]
}

// Global looks up a global by name.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
