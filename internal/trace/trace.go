// Package trace defines the dynamic instruction execution trace format used
// by AutoCheck, modeled on the block format printed by LLVM-Tracer 1.2
// (paper Fig. 1 and Fig. 6).
//
// A trace is a sequence of instruction blocks. Each block describes one
// dynamically executed IR instruction:
//
//	0,<line>,<func>,<block>,<opcode>,<dynid>
//	1,<idx>,<size>,<value>,<isreg>,<name>     (one line per input operand)
//	r,0,<size>,<value>,<isreg>,<name>         (result line, if any)
//
// The first line of every block starts with "0" (as in LLVM-Tracer), which
// is what makes the stream splittable at block boundaries for parallel
// processing. <line> is the source line (-1 for synthesized instructions
// such as entry-block allocas, matching Fig. 6(c)); <opcode> uses the
// LLVM 3.4 opcode numbering that the paper's trace excerpts show
// (Load=27, Alloca=26, Call=49, ...). Values are printed as decimal
// integers, decimal floats (always containing '.' or 'e'), or 0x-prefixed
// pointers, which is also how a parser tells the three kinds apart.
package trace

import (
	"math"
	"strconv"
)

// LLVM 3.4 instruction opcode numbers, as used by LLVM-Tracer and shown in
// the paper's figures (Load=27 in Fig. 1, Alloca=26 in Fig. 6(c), Call=49
// in Fig. 6(a)).
const (
	OpRet           = 1
	OpBr            = 2
	OpSwitch        = 3
	OpAdd           = 8
	OpFAdd          = 9
	OpSub           = 10
	OpFSub          = 11
	OpMul           = 12
	OpFMul          = 13
	OpUDiv          = 14
	OpSDiv          = 15
	OpFDiv          = 16
	OpURem          = 17
	OpSRem          = 18
	OpFRem          = 19
	OpAlloca        = 26
	OpLoad          = 27
	OpStore         = 28
	OpGetElementPtr = 29
	OpTrunc         = 33
	OpZExt          = 34
	OpSExt          = 35
	OpFPToSI        = 37
	OpSIToFP        = 39
	OpBitCast       = 44
	OpICmp          = 46
	OpFCmp          = 47
	OpPHI           = 48
	OpCall          = 49
	OpSelect        = 50
)

// opcodeNames is the dense opcode-number -> mnemonic lookup table. It is
// also serialized into the binary format's self-description header, so a
// reader can name opcodes without compiling against this package version.
var opcodeNames = [...]string{
	OpRet:           "Ret",
	OpBr:            "Br",
	OpSwitch:        "Switch",
	OpAdd:           "Add",
	OpFAdd:          "FAdd",
	OpSub:           "Sub",
	OpFSub:          "FSub",
	OpMul:           "Mul",
	OpFMul:          "FMul",
	OpUDiv:          "UDiv",
	OpSDiv:          "SDiv",
	OpFDiv:          "FDiv",
	OpURem:          "URem",
	OpSRem:          "SRem",
	OpFRem:          "FRem",
	OpAlloca:        "Alloca",
	OpLoad:          "Load",
	OpStore:         "Store",
	OpGetElementPtr: "GetElementPtr",
	OpTrunc:         "Trunc",
	OpZExt:          "ZExt",
	OpSExt:          "SExt",
	OpFPToSI:        "FPToSI",
	OpSIToFP:        "SIToFP",
	OpBitCast:       "BitCast",
	OpICmp:          "ICmp",
	OpFCmp:          "FCmp",
	OpPHI:           "PHI",
	OpCall:          "Call",
	OpSelect:        "Select",
}

// OpcodeName returns a human-readable mnemonic for an opcode number.
func OpcodeName(op int) string {
	if op >= 0 && op < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return "Op" + strconv.Itoa(op)
}

// ValueKind discriminates the three value encodings in a trace.
type ValueKind uint8

const (
	KindInt ValueKind = iota
	KindFloat
	KindPtr
)

// Value is a dynamic operand value carried by a trace record: its kind and
// one 8-byte payload — an int's two's-complement bits, a float's IEEE-754
// bits, or an address. It is 16 bytes because every memory cell, register
// and operand carries one.
type Value struct {
	Kind ValueKind
	bits uint64
}

// IntValue returns an integer trace value.
func IntValue(v int64) Value { return Value{Kind: KindInt, bits: uint64(v)} }

// FloatValue returns a floating-point trace value.
func FloatValue(v float64) Value { return Value{Kind: KindFloat, bits: math.Float64bits(v)} }

// PtrValue returns a pointer (address) trace value.
func PtrValue(a uint64) Value { return Value{Kind: KindPtr, bits: a} }

// BitsValue returns the value of the given kind whose payload is bits, the
// inverse of Bits: the way a decoder that stores a kind byte and eight
// payload bytes gets its value back. The caller validates kind.
func BitsValue(kind ValueKind, bits uint64) Value { return Value{Kind: kind, bits: bits} }

// Bits returns the value's 8-byte payload, whatever its kind.
func (v Value) Bits() uint64 { return v.bits }

// Int returns an integer value's payload, and 0 for any other kind.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// Float returns a float value's payload, and 0 for any other kind.
func (v Value) Float() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// Addr returns a pointer value's address, and 0 for any other kind.
func (v Value) Addr() uint64 {
	if v.Kind != KindPtr {
		return 0
	}
	return v.bits
}

// String formats the value using the trace encoding.
func (v Value) String() string {
	return string(v.appendTo(nil))
}

// appendTo appends the value's trace encoding to b without intermediate
// allocation (the writer hot path).
func (v Value) appendTo(b []byte) []byte {
	switch v.Kind {
	case KindPtr:
		b = append(b, '0', 'x')
		return strconv.AppendUint(b, v.bits, 16)
	case KindFloat:
		start := len(b)
		b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
		if !hasFloatMarker(b[start:]) {
			b = append(b, '.', '0')
		}
		return b
	default:
		return strconv.AppendInt(b, int64(v.bits), 10)
	}
}

// hasFloatMarker reports whether a formatted float already carries a byte
// that distinguishes it from an integer ('.', 'e', 'E') or is a special
// value (Inf/NaN, which contain 'I'/'N').
func hasFloatMarker(s []byte) bool {
	for _, c := range s {
		switch c {
		case '.', 'e', 'E', 'I', 'N':
			return true
		}
	}
	return false
}

// Equal reports whether two values are identical (exact comparison; trace
// values are never the result of lossy formatting because the writer emits
// full precision). Floats compare as floats (−0 equals +0, a NaN equals
// nothing); ints and pointers compare by payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == KindFloat {
		return v.Float() == o.Float()
	}
	return v.bits == o.bits
}

// Operand is one input operand or the result of a dynamic instruction:
// 56 bytes. Index and Size stay int rather than int32 — an Alloca's result
// carries its allocation size in bits, which overflows int32 above 256 MiB.
type Operand struct {
	Index int   // 1-based operand position; 0 for the result
	Size  int   // size in bits (64 for scalars, pointer-sized for addresses)
	Value Value // dynamic value at execution time
	IsReg bool  // true if the operand is a register (temporary or named)
	Name  string
}

// Record is one dynamic instruction block.
type Record struct {
	Line   int    // source line; -1 for synthesized instructions
	Func   string // enclosing function name
	Block  string // basic block label (the paper prints "line:col"; we print the label)
	Opcode int
	DynID  int64 // dynamic instruction ID, strictly increasing
	Ops    []Operand
	Result *Operand
}

// Clone returns a copy of the record that shares no mutable storage with
// the original: the operand slice and the result operand are duplicated
// (strings and values are immutable). Use it to retain a record beyond
// the callback that delivered it — emitters are free to reuse their
// record and operand buffers between emissions.
func (r *Record) Clone() Record {
	var c Record
	r.CloneInto(&c, make([]Operand, 0, r.NumOperands()))
	return c
}

// NumOperands counts the record's operands, the result included: the
// arena room CloneInto needs.
func (r *Record) NumOperands() int {
	n := len(r.Ops)
	if r.Result != nil {
		n++
	}
	return n
}

// CloneInto is Clone with the storage supplied: the copy is written to
// *dst and its operands onto the end of arena, which is returned
// extended — the way to retain many records without an allocation each.
// When arena has room for NumOperands more it is filled in place;
// otherwise append moves it, which leaves records cloned earlier pointing
// at the old array, intact.
func (r *Record) CloneInto(dst *Record, arena []Operand) []Operand {
	*dst = *r
	if len(r.Ops) > 0 {
		start := len(arena)
		arena = append(arena, r.Ops...)
		// Capacity-clamped so an append to dst.Ops cannot clobber what follows.
		dst.Ops = arena[start:len(arena):len(arena)]
	}
	if r.Result != nil {
		arena = append(arena, *r.Result)
		dst.Result = &arena[len(arena)-1]
	}
	return arena
}

// Operand returns the input operand with 1-based position idx, or nil.
func (r *Record) Operand(idx int) *Operand {
	for i := range r.Ops {
		if r.Ops[i].Index == idx {
			return &r.Ops[i]
		}
	}
	return nil
}

// String renders the record in its trace block encoding (without trailing
// newline separation between blocks; blocks are newline-terminated lines).
func (r *Record) String() string {
	return string(appendRecord(nil, r))
}

// appendRecord appends the record's textual block encoding to b. It is the
// single encoding path: Writer.Write, EncodeAll, and Record.String all
// build bytes directly instead of detouring through a strings.Builder.
func appendRecord(b []byte, r *Record) []byte {
	b = append(b, '0', ',')
	b = strconv.AppendInt(b, int64(r.Line), 10)
	b = append(b, ',')
	b = append(b, r.Func...)
	b = append(b, ',')
	b = append(b, r.Block...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.Opcode), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.DynID, 10)
	b = append(b, '\n')
	for i := range r.Ops {
		b = appendOperand(b, '1', &r.Ops[i])
	}
	if r.Result != nil {
		b = appendOperand(b, 'r', r.Result)
	}
	return b
}

func appendOperand(b []byte, tag byte, o *Operand) []byte {
	b = append(b, tag, ',')
	b = strconv.AppendInt(b, int64(o.Index), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(o.Size), 10)
	b = append(b, ',')
	b = o.Value.appendTo(b)
	b = append(b, ',')
	if o.IsReg {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, ',')
	b = append(b, o.Name...)
	b = append(b, '\n')
	return b
}
