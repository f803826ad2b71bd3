package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"autocheck/internal/trace"
)

// A text trace is decoded ahead of the engine (decoupled access/execute,
// J. E. Smith, ISCA 1982): the decoder runs on a goroutine of its own and
// the engine on the caller's, joined by a ring of slots. A record crosses
// as values: a slot holds its template id, its DynID and the trace.Value
// of every operand and of the result — pointer-free, so no write barrier —
// and the first record of an id also its static half, cloned once into a
// trace.Template that the engine keeps as the id's record and writes each
// later record's values into. A record of no template is cloned whole.
// The engine sees the records, ids and order the serial schedule gives.

// The ring: aheadSlots slots of aheadRecords records each.
const aheadSlots, aheadRecords = 4, 1024

// readAhead is the ring: the decode takes empty slots from free and hands
// them on full, then a nil one; the caller hands them back on free.
type readAhead struct {
	full, free chan *aheadSlot
	abort      atomic.Bool // the caller stopped: the decode stops at its next slot
	err        error       // ReadInto's, set before the nil slot is sent
	panicked   any         // the decode's panic, likewise

	// The decode's: the slot it fills; by id, the clone of the static half,
	// kept from run to run to be cloned into again, and whether it crossed.
	fill  *aheadSlot
	defs  []*trace.Template
	sent  []bool
	tslab []trace.Template
	oslab []trace.Operand
	pack  trace.Sink

	tmpls []*trace.Template // the caller's: each id's record
}

// aheadSlot is one slot. A record with a template id takes the next DynID
// and the next len(Ops) values, and the next of defs if its id is new; a
// record of none takes the next record of loose.
type aheadSlot struct {
	ids   []uint32
	dyns  []int64
	vals  []trace.Value
	defs  []*trace.Template
	loose trace.RecordBatch
}

var errAborted = errors.New("core: read-ahead aborted")

// rings holds the idle rings: AnalyzeFile and AnalyzeBytes make a scratch
// bundle per call, and a ring is 0.3 MB of slots, about 1 MB once warm
// (each slot's loose records, and each id's clone, are kept for reuse).
var rings = sync.Pool{New: func() any {
	ra := &readAhead{full: make(chan *aheadSlot, aheadSlots), free: make(chan *aheadSlot, aheadSlots)}
	ra.pack = ra.add
	for range aheadSlots {
		ra.free <- &aheadSlot{ids: make([]uint32, 0, aheadRecords), dyns: make([]int64, 0, aheadRecords),
			vals: make([]trace.Value, 0, 4*aheadRecords)}
	}
	return ra
}}

// run is rd.ReadInto(sink) with the decode on a goroutine of its own. When
// run returns, re-raises the decode's panic or passes on sink's, the
// goroutine is done with the ring.
func (ra *readAhead) run(rd trace.Reader, sink trace.Sink) error {
	ra.err, ra.panicked = nil, nil
	ra.abort.Store(false)
	clear(ra.sent)
	clear(ra.tmpls)
	go ra.decode(rd)
	s := <-ra.full
	defer func() {
		if s != nil { // sink panicked
			ra.abort.Store(true)
			for ; s != nil; s = <-ra.full {
				ra.free <- s
			}
		}
	}()
	for ; s != nil; s = <-ra.full {
		ra.unpack(s, sink)
		ra.free <- s
	}
	if ra.panicked != nil {
		panic(ra.panicked)
	}
	return ra.err
}

func (ra *readAhead) decode(rd trace.Reader) {
	defer func() {
		p := recover()
		if p != errAborted {
			ra.panicked = p
		}
		if s := ra.fill; p == nil && len(s.ids) > 0 {
			ra.full <- s
		} else {
			ra.free <- s
		}
		ra.full <- nil
	}()
	ra.take()
	ra.err = rd.ReadInto(ra.pack)
}

// take empties a free slot for the decode to fill.
func (ra *readAhead) take() {
	s := <-ra.free
	s.ids, s.dyns, s.vals, s.defs = s.ids[:0], s.dyns[:0], s.vals[:0], s.defs[:0]
	s.loose.Reset()
	ra.fill = s
}

// add is the decode's sink: it packs each record into the slot, and hands
// the slot on when it is full.
func (ra *readAhead) add(recs []trace.Record, ids []uint32) {
	for k := range recs {
		r, s, id := &recs[k], ra.fill, ids[k]
		s.ids = append(s.ids, id)
		if id == trace.NoTemplate {
			s.loose.Add(recs[k:k+1], nil)
		} else {
			if int(id) >= len(ra.sent) || !ra.sent[id] {
				s.defs = append(s.defs, ra.define(r, id))
			}
			s.dyns = append(s.dyns, r.DynID)
			for i := range r.Ops {
				s.vals = append(s.vals, r.Ops[i].Value)
			}
			if r.Result != nil {
				s.vals = append(s.vals, r.Result.Value)
			}
		}
		if len(s.ids) == aheadRecords {
			if ra.abort.Load() {
				panic(errAborted)
			}
			ra.full <- s
			ra.take()
		}
	}
}

// define clones r's static half, id's, for the caller to keep.
func (ra *readAhead) define(r *trace.Record, id uint32) *trace.Template {
	for int(id) >= len(ra.sent) {
		ra.sent, ra.defs = append(ra.sent, false), append(ra.defs, nil)
	}
	ra.sent[id] = true
	t := ra.defs[id]
	if t == nil {
		t = &cut(&ra.tslab, 1)[0]
		ra.defs[id] = t
	}
	ops := t.Ops
	if len(ops) != r.NumOperands() {
		ops = cut(&ra.oslab, r.NumOperands())
	}
	if n := copy(ops, r.Ops); r.Result != nil {
		ops[n] = *r.Result
	}
	t.Lay(r, ops, r.Result != nil, id)
	return t
}

// unpack hands sink the records of s, in order.
func (ra *readAhead) unpack(s *aheadSlot, sink trace.Sink) {
	loose, def, val := 0, 0, 0
	for k, id := range s.ids {
		if id == trace.NoTemplate {
			sink(s.loose.Recs[loose:loose+1], nil)
			loose++
			continue
		}
		for int(id) >= len(ra.tmpls) {
			ra.tmpls = append(ra.tmpls, nil)
		}
		t := ra.tmpls[id]
		if t == nil {
			t, ra.tmpls[id] = s.defs[def], s.defs[def]
			def++
		}
		t.Rec[0].DynID = s.dyns[k-loose]
		for i := range t.Ops {
			t.Ops[i].Value = s.vals[val+i]
		}
		val += len(t.Ops)
		sink(t.Rec[:], t.ID[:])
	}
}
