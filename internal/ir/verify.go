package ir

import (
	"fmt"

	"autocheck/internal/trace"
)

// Verify checks structural well-formedness of a module: every block ends in
// exactly one terminator, operand counts and types match instruction
// layouts, register IDs are unique per function, and calls resolve.
// The interpreter and lowering rely on these invariants.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("ir: function %s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks one function.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	seen := make(map[int]bool)
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.Parent != b {
				return fmt.Errorf("block %s instr %d has wrong parent", b.Name, i)
			}
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				return fmt.Errorf("block %s: terminator placement at instr %d (%s)", b.Name, i, in)
			}
			if in.Producer() {
				if in.ID <= 0 || in.ID >= f.NumRegs() {
					// The interpreter indexes its register file by ID.
					return fmt.Errorf("block %s: producer %s not numbered by Function.Number", b.Name, in)
				}
				if seen[in.ID] {
					return fmt.Errorf("block %s: duplicate register id %d", b.Name, in.ID)
				}
				seen[in.ID] = true
			}
			if err := verifyInstr(in); err != nil {
				return fmt.Errorf("block %s: %s: %w", b.Name, in, err)
			}
		}
	}
	return nil
}

func verifyInstr(in *Instr) error {
	argn := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d args, have %d", n, len(in.Args))
		}
		return nil
	}
	switch in.Op {
	case trace.OpAlloca:
		if in.AllocElem == nil {
			return fmt.Errorf("alloca without element type")
		}
		if !IsPtr(in.Type()) {
			return fmt.Errorf("alloca result must be pointer, got %s", in.Type())
		}
	case trace.OpLoad:
		if err := argn(1); err != nil {
			return err
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("load from non-pointer %s", in.Args[0].Type())
		}
	case trace.OpStore:
		if err := argn(2); err != nil {
			return err
		}
		if !IsPtr(in.Args[1].Type()) {
			return fmt.Errorf("store to non-pointer %s", in.Args[1].Type())
		}
	case trace.OpGetElementPtr:
		if len(in.Args) < 2 {
			return fmt.Errorf("gep needs base and at least one index")
		}
		if !IsPtr(in.Args[0].Type()) {
			return fmt.Errorf("gep base must be pointer, got %s", in.Args[0].Type())
		}
		if !IsPtr(in.Type()) {
			return fmt.Errorf("gep result must be pointer")
		}
	case trace.OpBitCast:
		if err := argn(1); err != nil {
			return err
		}
	case trace.OpAdd, trace.OpSub, trace.OpMul, trace.OpSDiv, trace.OpUDiv, trace.OpSRem, trace.OpURem:
		if err := argn(2); err != nil {
			return err
		}
		if !IsInt(in.Type()) {
			return fmt.Errorf("integer arithmetic with result %s", in.Type())
		}
	case trace.OpFAdd, trace.OpFSub, trace.OpFMul, trace.OpFDiv, trace.OpFRem:
		if err := argn(2); err != nil {
			return err
		}
		if !IsFloat(in.Type()) {
			return fmt.Errorf("float arithmetic with result %s", in.Type())
		}
	case trace.OpICmp, trace.OpFCmp:
		if err := argn(2); err != nil {
			return err
		}
	case trace.OpSIToFP:
		if err := argn(1); err != nil {
			return err
		}
		if !IsFloat(in.Type()) {
			return fmt.Errorf("sitofp result %s", in.Type())
		}
	case trace.OpFPToSI:
		if err := argn(1); err != nil {
			return err
		}
		if !IsInt(in.Type()) {
			return fmt.Errorf("fptosi result %s", in.Type())
		}
	case trace.OpBr:
		switch len(in.Succs) {
		case 1:
			if len(in.Args) != 0 {
				return fmt.Errorf("unconditional br with condition")
			}
		case 2:
			if len(in.Args) != 1 {
				return fmt.Errorf("conditional br needs a condition")
			}
		default:
			return fmt.Errorf("br with %d successors", len(in.Succs))
		}
	case trace.OpRet:
		if len(in.Args) > 1 {
			return fmt.Errorf("ret with %d values", len(in.Args))
		}
	case trace.OpCall:
		if in.Callee == nil && in.Builtin == "" {
			return fmt.Errorf("call without callee")
		}
		if in.Callee != nil && len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("call to %s with %d args, want %d",
				in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	return nil
}
