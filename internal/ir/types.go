// Package ir defines the intermediate representation that the mini-C
// frontend lowers to and that the tracing interpreter executes. It is
// shaped after the slice of LLVM 3.4 IR that LLVM-Tracer observes and the
// AutoCheck paper analyzes (Table I): stack allocation with Alloca,
// memory access with Load/Store/GetElementPtr/BitCast, the Add..FDiv
// arithmetic family, comparisons, branches, and the two Call forms.
//
// Instructions use the LLVM 3.4 opcode numbering from the trace package,
// so the dynamic trace can carry them verbatim. Temporary registers are
// numbered per function; named instructions (allocas for source variables)
// carry the source name, mirroring how LLVM-Tracer prints '%p' for a
// variable and '%8' for a temporary.
package ir

import "fmt"

// Type is the type of an IR value. Scalars are 8 bytes (i64 and f64),
// which matches the 64-bit operand sizes the paper's traces show.
type Type interface {
	String() string
	Size() int64 // size in bytes of one value of this type
}

// IntType is a 64-bit signed integer.
type IntType struct{}

// FloatType is a 64-bit IEEE float.
type FloatType struct{}

// VoidType is the type of functions that return nothing.
type VoidType struct{}

// PtrType is a pointer to Elem.
type PtrType struct{ Elem Type }

// ArrayType is a fixed-size array of Len elements of Elem. Multi-dimensional
// arrays nest (e.g. [10 x [10 x f64]]).
type ArrayType struct {
	Elem Type
	Len  int64
}

func (IntType) String() string   { return "i64" }
func (FloatType) String() string { return "f64" }
func (VoidType) String() string  { return "void" }
func (t PtrType) String() string { return t.Elem.String() + "*" }
func (t ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem.String())
}

func (IntType) Size() int64   { return 8 }
func (FloatType) Size() int64 { return 8 }
func (VoidType) Size() int64  { return 0 }
func (PtrType) Size() int64   { return 8 }
func (t ArrayType) Size() int64 {
	return t.Len * t.Elem.Size()
}

// Convenience singletons.
var (
	I64  = IntType{}
	F64  = FloatType{}
	Void = VoidType{}
)

// Ptr returns a pointer type to elem.
func Ptr(elem Type) Type { return PtrType{Elem: elem} }

// Array returns an n-element array of elem.
func Array(elem Type, n int64) Type { return ArrayType{Elem: elem, Len: n} }

// IsFloat reports whether t is the floating-point scalar type.
func IsFloat(t Type) bool { _, ok := t.(FloatType); return ok }

// IsInt reports whether t is the integer scalar type.
func IsInt(t Type) bool { _, ok := t.(IntType); return ok }

// IsPtr reports whether t is a pointer type.
func IsPtr(t Type) bool { _, ok := t.(PtrType); return ok }

// IsArray reports whether t is an array type.
func IsArray(t Type) bool { _, ok := t.(ArrayType); return ok }

// IsVoid reports whether t is void.
func IsVoid(t Type) bool { _, ok := t.(VoidType); return ok }

// Pointee returns the element type of a pointer, or nil.
func Pointee(t Type) Type {
	if p, ok := t.(PtrType); ok {
		return p.Elem
	}
	return nil
}

// TypeEqual reports structural type equality.
func TypeEqual(a, b Type) bool {
	switch at := a.(type) {
	case IntType:
		return IsInt(b)
	case FloatType:
		return IsFloat(b)
	case VoidType:
		return IsVoid(b)
	case PtrType:
		bt, ok := b.(PtrType)
		return ok && TypeEqual(at.Elem, bt.Elem)
	case ArrayType:
		bt, ok := b.(ArrayType)
		return ok && at.Len == bt.Len && TypeEqual(at.Elem, bt.Elem)
	}
	return false
}
