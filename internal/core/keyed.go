package core

import (
	"unsafe"

	"autocheck/internal/trace"
)

// A record without a template id — Analyze's, Observe's, ObserveBatch's
// without ids, ACTB version 1's, a text block or an ACTB record its
// decoder made no template of — gets the shape of its static half,
// hash-consed (Filliâtre and Conchon, "Type-Safe Modular Hash-Consing",
// 2006). The key is what newShape reads: Func, Line, Opcode, each
// operand's Index, IsReg and Name, and the result's presence and name, so
// a shape's step, rows and operand positions are its key's. Records that
// differ only in Block, sizes, DynID, values or where their strings are
// stored share a shape, and its access cache; any other difference gets
// a shape of its own. Rows come from reg, so a keyed
// shape and a template id's shape share a register's row.
//
// A key is looked up in a direct-mapped table of recent keys, hashed on
// its integers and the addresses of its strings (a producer hands a static
// half the same strings each time), then in the chain of its head. Both
// compare it field by field with a copy of the first record's key: the
// hash decides how fast a shape is found, never which.

// recentBits sizes the table of recent keys: 2^recentBits slots.
const recentBits = 12

// keyed is one static half: the key of its first record, and its shape.
type keyed struct {
	head
	ops     []trace.Operand // Index, IsReg and Name are the key's
	res     bool            // the key has a result, named resName
	resName string
	sh      *shape
	next    *keyed // the next key with the same head
}

// head is a key's Func, Line and Opcode, which its chain is kept by.
type head struct {
	fn           string
	line, opcode int
}

// is reports whether r's static half is k's.
func (k *keyed) is(r *trace.Record) bool {
	if k.line != r.Line || k.opcode != r.Opcode || len(k.ops) != len(r.Ops) || k.fn != r.Func ||
		k.res != (r.Result != nil) || k.res && k.resName != r.Result.Name {
		return false
	}
	for i := range k.ops {
		p, q := &k.ops[i], &r.Ops[i]
		if p.Index != q.Index || p.IsReg != q.IsReg || p.Name != q.Name {
			return false
		}
	}
	return true
}

// keyedShape returns the shape of r's static half, resolving it from r
// when the half is new.
func (a *analyzer) keyedShape(r *trace.Record) *shape {
	if a.recent == nil {
		a.recent = new([1 << recentBits]*keyed)
	}
	h := uint64(r.Line)<<20 ^ uint64(r.Opcode)<<8 ^ uint64(len(r.Ops)) ^ strAddr(r.Func)
	for i := range r.Ops {
		h = (h ^ strAddr(r.Ops[i].Name) ^ uint64(r.Ops[i].Index)<<1) * 0x9e3779b97f4a7c15
	}
	if r.Result != nil {
		h ^= strAddr(r.Result.Name)
	}
	slot := &a.recent[(h*0x9e3779b97f4a7c15)>>(64-recentBits)]
	if k := *slot; k != nil && k.is(r) {
		return k.sh
	}
	hd := head{r.Func, r.Line, r.Opcode}
	for k := a.chains[hd]; k != nil; k = k.next {
		if k.is(r) {
			*slot = k
			return k.sh
		}
	}
	k := &cut(&a.keyedSlab, 1)[0]
	*k = keyed{head: hd, ops: append(cut(&a.opSlab, len(r.Ops))[:0], r.Ops...), sh: a.newShape(r), next: a.chains[hd]}
	if r.Result != nil {
		k.res, k.resName = true, r.Result.Name
	}
	a.chains[hd], *slot = k, k
	return k.sh
}

// strAddr is where s's bytes are.
func strAddr(s string) uint64 { return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s)))) }
