package interp

import (
	"fmt"

	"autocheck/internal/ir"
	"autocheck/internal/trace"
)

// funcCode is one function's code table on one machine: each block's
// instructions decoded once into the form step indexes, so executing an
// instruction costs no type switch over its operands, no interface call on
// its types and no map lookup. A machine builds a function's table the
// first time the function is called; its frames share it, nested
// recursive ones too.
type funcCode struct {
	fn     *ir.Function
	nregs  int         // fn.NumRegs(): a frame's parameters are its registers from here on
	blocks []codeBlock // indexed by block number: fn.Blocks' order
}

// codeBlock is one block's entries, indexed like its Instrs.
type codeBlock struct {
	blk  *ir.Block
	code []instr
}

// instr is one decoded instruction. Which fields an opcode reads:
//
//	every opcode      op, args; dst if it produces a result
//	Alloca            size
//	Load, Store       class: the loaded result's, the stored value's
//	GetElementPtr     strides
//	Br                succ
//	Call              callee (nil for a builtin)
//
// tmpl is the instruction's record template, built the first time the
// instruction emits (see Machine.emit).
type instr struct {
	in      *ir.Instr
	op      int
	dst     int // the result's register; -1 when there is none
	args    []operand
	class   valueClass
	succ    [2]int
	size    uint64
	strides []int64
	callee  *funcCode
	tmpl    recordTemplate
}

// operand is one resolved argument: the frame's register reg, or, when
// reg is negative, the constant val — an immediate or a global's address.
type operand struct {
	reg int
	val trace.Value
}

// value is the value of o in frame f.
func (f *Frame) value(o *operand) trace.Value {
	if o.reg >= 0 {
		return f.regs[o.reg]
	}
	return o.val
}

// valueClass is how a memory access coerces the value it moves: to a
// float, to an integer, or not at all (a pointer).
type valueClass uint8

const (
	classOther valueClass = iota
	classInt
	classFloat
)

func classOf(t ir.Type) valueClass {
	switch {
	case ir.IsFloat(t):
		return classFloat
	case ir.IsInt(t):
		return classInt
	}
	return classOther
}

func (c valueClass) coerce(v trace.Value) trace.Value {
	switch {
	case c == classFloat && v.Kind != trace.KindFloat:
		if v.Kind == trace.KindPtr {
			return trace.FloatValue(float64(v.Addr()))
		}
		return trace.FloatValue(float64(v.Int()))
	case c == classInt && v.Kind == trace.KindFloat:
		return trace.IntValue(int64(v.Float()))
	}
	return v
}

// slabLens is how many code entries, operands (and strides) and template
// operands a machine's slabs hold: as many as its module's functions take
// at most, so that a machine cuts each kind from one slab its size.
type slabLens struct{ code, args, ops int }

func slabLensOf(mod *ir.Module) (n slabLens) {
	for _, fn := range mod.Funcs {
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				k := len(in.Args) + 1 // a template's operands: the arguments, the result
				if in.Op == trace.OpCall {
					k *= 2 // and the callee and its parameters, one per argument
				}
				n.code, n.args, n.ops = n.code+1, n.args+len(in.Args), n.ops+k
			}
		}
	}
	return n
}

// cut returns an empty slice with room for n cut from the front of
// *slab, which a fresh slab of max(n, size) replaces when short of room.
func cut[T any](slab *[]T, n, size int) []T {
	if cap(*slab) < n {
		*slab = make([]T, max(n, size))
	}
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}

// codeOf returns fn's table on this machine, unbuilt until fn is first
// called.
func (m *Machine) codeOf(fn *ir.Function) *funcCode {
	c := m.codes[fn]
	if c == nil {
		if m.codes == nil {
			m.codes = make(map[*ir.Function]*funcCode)
		}
		c = &funcCode{fn: fn, nregs: fn.NumRegs()}
		m.codes[fn] = c
	}
	return c
}

// build decodes c's blocks. A branch names its targets by block number,
// their positions in fn.Blocks.
func (m *Machine) build(c *funcCode) {
	num := make(map[*ir.Block]int, len(c.fn.Blocks))
	for i, b := range c.fn.Blocks {
		num[b] = i
	}
	c.blocks = make([]codeBlock, len(c.fn.Blocks))
	for bi, blk := range c.fn.Blocks {
		code := cut(&m.codeSlab, len(blk.Instrs), m.lens.code)[:len(blk.Instrs)]
		for i, in := range blk.Instrs {
			e := &code[i]
			e.in, e.op, e.dst = in, in.Op, -1
			if in.Producer() {
				e.dst = in.ID
			}
			e.args = cut(&m.argSlab, len(in.Args), m.lens.args)
			for _, a := range in.Args {
				e.args = append(e.args, m.resolve(c, a))
			}
			switch in.Op {
			case trace.OpAlloca:
				e.size = align8(in.AllocElem.Size())
			case trace.OpLoad:
				e.class = classOf(in.Type())
			case trace.OpStore:
				e.class = classOf(in.Args[0].Type())
			case trace.OpGetElementPtr:
				e.strides = m.strides(in)
			case trace.OpBr:
				for k, s := range in.Succs {
					n, ok := num[s]
					if !ok {
						panic(fmt.Sprintf("interp: %s branches to %s, a block outside the function", c.fn.Name, s.Name))
					}
					e.succ[k] = n
				}
			case trace.OpCall:
				if in.Callee != nil {
					e.callee = m.codeOf(in.Callee)
				}
			}
		}
		c.blocks[bi] = codeBlock{blk: blk, code: code}
	}
}

// resolve decodes a, an operand of one of c's instructions: a register,
// a parameter's register, or a constant — a global's address included.
func (m *Machine) resolve(c *funcCode, a ir.Value) operand {
	switch x := a.(type) {
	case *ir.Instr:
		return operand{reg: x.ID}
	case *ir.Param:
		return operand{reg: c.nregs + x.Index}
	case *ir.Const:
		if ir.IsFloat(x.Typ) {
			return operand{reg: -1, val: trace.FloatValue(x.F)}
		}
		return operand{reg: -1, val: trace.IntValue(x.I)}
	case *ir.Global:
		return operand{reg: -1, val: trace.PtrValue(m.globalAddr(x))}
	}
	panic(fmt.Sprintf("interp: unknown value %T", a))
}

// globalAddr is the address of g, or 0 when g is not one of the module's
// globals.
func (m *Machine) globalAddr(g *ir.Global) uint64 {
	for i, mg := range m.Mod.Globals {
		if mg == g {
			return m.globals[i]
		}
	}
	return 0
}

// strides returns the byte strides of a GetElementPtr's indices: the
// first steps over the base's pointee, and each further one descends an
// array level, up to the first index that follows a type that is not an
// array; the indices after it are not applied.
func (m *Machine) strides(in *ir.Instr) []int64 {
	t := ir.Pointee(in.Args[0].Type())
	s := append(cut(&m.strideSlab, len(in.Args)-1, m.lens.args), t.Size())
	for range in.Args[2:] {
		a, ok := t.(ir.ArrayType)
		if !ok {
			break
		}
		s = append(s, a.Elem.Size())
		t = a.Elem
	}
	return s
}
