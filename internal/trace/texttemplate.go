package trace

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Text templates: the text decoder's way around parsing the static half of
// a block it has seen before. A block is its header up to the DynID, then
// the DynID, then its operand lines; of those bytes only the DynID and the
// value field of each register operand vary from one execution of an
// instruction to the next. A template holds the rest — the static bytes —
// and the record they decode to, so a block that matches it is checked
// with a memory compare per static run and scans only its variable
// fields, each of which must end where the next static run begins:
//
//	0,12,main,for.body,27,|DynID|\n1,1,64,|value|,1,arrayidx\nr,0,64,|value|,1,7\n
//
// A block that does not match byte for byte is parsed field by field, so
// a template can only ever decide how fast a block decodes, never what it
// decodes to or which error it fails with. A register value is scanned
// first in the form of the kind it had when the template was made; a value
// of another kind takes the generic scan.
//
// Templates are made from parsed blocks, and only from plain ones: LF line
// ends, no empty line, the result (if any) last, at most
// maxTemplateOperands operands. A shape becomes a template the second time
// it is seen, through a fixed first-sight memo, so a trace of distinct
// shapes costs the memo and no templates; the parse hands learn the spans
// of the variable fields, so a block is not walked twice. A template's
// static half is a Template, as an ACTB template's is, into which a block
// that matches is decoded in place, and which is handed on as its record; the
// templates' storage comes from slabs, and their number is capped.
//
// The template that decodes a block is looked for first as the successor
// of the previous block's template — the instruction that followed it
// last time — and then in a table keyed by the header up to the DynID,
// behind a filter of the headers that have templates. A template's id is
// its index in the order templates are made; the records it decodes are
// handed on with it.

// textTmpl is one block shape.
type textTmpl struct {
	*Template
	head   int       // static[:head] is the header line up to the DynID
	static []byte    // the block's bytes less its variable fields
	vars   []textVar // the register value fields, in block order
	next   *textTmpl // the template of the block that followed this one's last
	sib    *textTmpl // the next template whose header matches this one's
}

// textVar is a register value field of a template: it sits at static[at]
// and is the value of Ops[op].
type textVar struct{ at, op int32 }

// span is where a field sits in a line or a block: [from, to).
type span struct{ from, to int }

// textTemplates is the decoder's template state.
type textTemplates struct {
	byHead map[string]*textTmpl // header up to the DynID -> its templates
	heads  headFilter           // the headers byHead holds, to test first
	n      int                  // templates made
	last   *textTmpl            // the previous block's template, or nil
	clock  int64                // blocks decoded, the memo's clock
	memo   [256]memoSlot

	// Where the DynID and each operand's value field sit in the block
	// decode is parsing, from the block's start: learn's map of it.
	dyn  span
	vals []span

	sbuf []byte // a block's static bytes, while learn looks at them
	vbuf []textVar

	slabs templateSlabs
	tslab []textTmpl
	bslab []byte
	vslab []textVar
}

// memoSlot holds the fingerprint of a shape seen once, and when it was.
type memoSlot struct {
	fp uint64
	at int64
}

const (
	// maxTextTemplates caps the templates of one decoder, so a hostile
	// trace of many repeated shapes holds a bounded table; a program has
	// a few hundred.
	maxTextTemplates = 1 << 14
	// maxSiblings caps the templates that share one header.
	maxSiblings = 32
	// memoAge is how many blocks a memo slot keeps the shape it holds from
	// other shapes, so that two shapes of one loop that share a slot do
	// not evict each other for ever; after it, a one-off shape's slot is
	// free again.
	memoAge = 1 << 10
	// The slab sizes: templates, static bytes and fields.
	tmplSlab, byteSlab, varSlab = 64, 8 << 10, 256
)

// templated decodes the block at data[pos:], which starts with a header
// line, from a template that matches it, and hands it to sink. It returns
// the position after the block, or -1 if no template matches.
func (d *decoder) templated(sink Sink, data []byte, pos int) int {
	tt := &d.tt
	var tried *textTmpl
	if tt.last != nil {
		if t := tt.last.next; t != nil && bytes.HasPrefix(data[pos:], t.static[:t.head]) {
			if end := d.apply(sink, t, data, pos); end >= 0 {
				return end
			}
			tried = t
		}
	}
	if tt.n == 0 {
		return -1
	}
	head, commas := pos, 0
	for ; commas < 5 && head < len(data) && data[head] != '\n'; head++ {
		if data[head] == ',' {
			commas++
		}
	}
	if commas < 5 || !tt.heads.has(data[pos:head]) {
		return -1
	}
	for t := tt.byHead[string(data[pos:head])]; t != nil; t = t.sib {
		if t == tried {
			continue
		}
		if end := d.apply(sink, t, data, pos); end >= 0 {
			return end
		}
	}
	return -1
}

// apply decodes the block at data[pos:], whose header up to the DynID is
// t's, into t's Template, and hands its record to sink. It returns the
// position after the block, or -1 if the block is not t's: the values
// match wrote by then, the next block t matches writes again.
func (d *decoder) apply(sink Sink, t *textTmpl, data []byte, pos int) int {
	dyn, p, ok := t.match(data, pos)
	if !ok {
		return -1
	}
	t.Rec[0].DynID = dyn
	d.follow(t)
	sink(t.Rec[:], t.ID[:])
	return p
}

// match walks the block at data[pos:] once, comparing each of t's static
// runs and decoding each variable field: the DynID, returned, and the
// register values, written into t's operands. The block must end where t
// does, at the end of data or at the next header. It returns the position
// after the block.
func (t *textTmpl) match(data []byte, pos int) (dyn int64, p int, ok bool) {
	if dyn, p, ok = scanDigits(data, pos+t.head); !ok {
		return 0, 0, false
	}
	from := t.head
	for _, v := range t.vars {
		run := t.static[from:v.at]
		if !bytes.HasPrefix(data[p:], run) {
			return 0, 0, false
		}
		if p, ok = scanRegister(data, p+len(run), &t.Ops[v.op].Value); !ok {
			return 0, 0, false
		}
		from = int(v.at)
	}
	run := t.static[from:]
	if !bytes.HasPrefix(data[p:], run) {
		return 0, 0, false
	}
	p += len(run)
	return dyn, p, p == len(data) || isHeaderLine(data[p:])
}

// follow notes that a block of template t (nil: of none) was decoded.
func (d *decoder) follow(t *textTmpl) {
	tt := &d.tt
	if tt.last != nil && t != nil {
		tt.last.next = t
	}
	tt.last = t
	tt.clock++
}

// scanRegister decodes the register value at data[p:], in a block being
// checked against a template, into *v, exactly as scanValue decodes the
// same field of the line, and returns where the field ends. *v holds the
// template's value, whose kind scanNumber tries first. It never reads past
// the line's end: ok is false where the field does not end at a comma
// within its line, or where scanValue would fail.
func scanRegister(data []byte, p int, v *Value) (int, bool) {
	if end, ok := scanNumber(data, p, v.Kind, v); ok {
		return end, true
	}
	end := p
	for end < len(data) && data[end] != ',' && data[end] != '\n' {
		end++
	}
	if end == len(data) || data[end] != ',' {
		return 0, false
	}
	var err error
	*v, err = parseValueBytes(data[p:end])
	return end, err == nil
}

// learn is handed each plain block the decoder parsed field by field —
// LF line ends, no empty line, the result (if any) last, at most
// maxTemplateOperands operands: block, its bytes up to the next header;
// rec and ops, what they decoded to (ops holds the result last); and in
// tt.dyn and tt.vals, where the parse found its DynID and each operand's
// value field. A block whose shape the first-sight memo holds becomes a
// template, which learn returns; any other block, nil.
func (d *decoder) learn(block []byte, rec *Record, ops []Operand, hasResult bool) *textTmpl {
	tt := &d.tt
	if tt.n == maxTextTemplates {
		return nil
	}
	head := tt.dyn.from
	s, vars := append(tt.sbuf[:0], block[:head]...), tt.vbuf[:0]
	p := tt.dyn.to // block[p:] is static from here on
	for i, v := range tt.vals {
		if ops[i].IsReg {
			s = append(s, block[p:v.from]...)
			vars = append(vars, textVar{at: int32(len(s)), op: int32(i)})
			p = v.to
		}
	}
	s = append(s, block[p:]...)
	tt.sbuf, tt.vbuf = s, vars
	// Only a repeat is promoted; two shapes whose fingerprints collide
	// only cost a template made early.
	h := fingerprint(s, vars)
	slot, fp := &tt.memo[h>>56], h|1
	if slot.fp != fp {
		if slot.fp == 0 || tt.clock-slot.at > memoAge {
			*slot = memoSlot{fp: fp, at: tt.clock}
		}
		return nil
	}
	*slot = memoSlot{}
	sib, n := tt.byHead[string(s[:head])], 0
	for o := sib; o != nil; o = o.sib {
		if n++; n == maxSiblings {
			return nil
		}
	}
	t := &carve(&tt.tslab, 1, tmplSlab)[0]
	*t = textTmpl{
		Template: tt.slabs.newTemplate(rec, ops, hasResult, uint32(tt.n)),
		head:     head,
		static:   carve(&tt.bslab, len(s), byteSlab),
		vars:     carve(&tt.vslab, len(vars), varSlab),
		sib:      sib,
	}
	copy(t.static, s)
	copy(t.vars, vars)
	if tt.byHead == nil {
		tt.byHead = make(map[string]*textTmpl, 64)
	}
	// The key views the template's own static bytes, which never change.
	tt.byHead[unsafeString(t.static[:head])] = t
	tt.heads.add(t.static[:head])
	tt.n++
	return t
}

// fingerprint hashes a block's static bytes, eight at a time, and its
// field positions. It is the same every run, so a trace decodes to the
// same template ids every time.
func fingerprint(s []byte, vars []textVar) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(s))
	for ; len(s) >= 8; s = s[8:] {
		h = (h ^ binary.LittleEndian.Uint64(s)) * m
		h ^= h >> 32
	}
	for _, c := range s {
		h = (h ^ uint64(c)) * m
	}
	for _, v := range vars {
		h = (h ^ uint64(v.at)) * m
	}
	return h ^ h>>29
}

// headFilter is a header's first-sight check: a bit per hash of the
// header bytes up to the DynID, set when a template of that header is
// made. A block whose header's bit is clear has no template, so it costs
// templated a short hash instead of a probe of byHead; a trace of few
// shapes sets few bits.
type headFilter [64]uint64

func (f *headFilter) add(head []byte) {
	h := headHash(head)
	f[h/64%64] |= 1 << (h % 64)
}

// has reports whether head may be the header of a template. A header
// that parses has at least eight bytes up to its DynID — "0,", a digit,
// four more commas and a digit — so a shorter one is no template's.
func (f *headFilter) has(head []byte) bool {
	if len(head) < 8 {
		return false
	}
	h := headHash(head)
	return f[h/64%64]&(1<<(h%64)) != 0
}

// headHash mixes a header's length and its first and last eight bytes,
// of at least eight, into the 12 bits headFilter indexes: the line number
// sits at the front, the block and opcode at the back.
func headHash(head []byte) uint32 {
	w := binary.LittleEndian.Uint64(head) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(head[len(head)-8:]), 31)
	return uint32((w + uint64(len(head))) * 0x9e3779b97f4a7c15 >> 52)
}
