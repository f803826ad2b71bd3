package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// inPlaceSink checks each record a decoder hands ReadInto against want,
// the reference decoder's records, inside the call that delivers it. It
// counts the records handed on under each template id at each address: a
// template's records are written in place into its Template, so an id is
// handed on from at most two places, its Template and the decoder's loose
// record (an ACTB definition, or the text block that made the template).
type inPlaceSink struct {
	want   []trace.Record
	n      int
	diffs  string
	places map[uint32][2]*trace.Record
}

func (s *inPlaceSink) observe(recs []trace.Record, ids []uint32) {
	switch {
	case s.diffs != "":
	case len(recs) != 1 || len(ids) != 1:
		s.diffs = fmt.Sprintf("record %d: a call of %d records and %d ids, want one", s.n, len(recs), len(ids))
	case s.n >= len(s.want):
		s.diffs = fmt.Sprintf("record %d = %s beyond the reference's %d", s.n, recs[0].String(), len(s.want))
	case !sameRecord(&recs[0], &s.want[s.n]):
		s.diffs = fmt.Sprintf("record %d = %s, reference %s", s.n, recs[0].String(), s.want[s.n].String())
	case ids[0] != trace.NoTemplate:
		at, r := s.places[ids[0]], &recs[0]
		switch {
		case at[0] == nil || at[0] == r:
			at[0] = r
		case at[1] == nil || at[1] == r:
			at[1] = r
		default:
			s.diffs = fmt.Sprintf("record %d: template %d handed on from a third place, want its Template and the loose record at most", s.n, ids[0])
		}
		s.places[ids[0]] = at
	}
	s.n++
}

// sameRecord reports whether a and b are equal field for field, values
// by kind and bits.
func sameRecord(a, b *trace.Record) bool {
	if a.Line != b.Line || a.Func != b.Func || a.Block != b.Block || a.Opcode != b.Opcode || a.DynID != b.DynID ||
		len(a.Ops) != len(b.Ops) || (a.Result == nil) != (b.Result == nil) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	return a.Result == nil || *a.Result == *b.Result
}

// inPlaceTrace is one input of TestDecodersInPlaceMatchReference: a trace
// in one format, and whether to feed it one byte at a time as well.
type inPlaceTrace struct {
	label  string
	data   []byte
	byByte bool
}

// TestDecodersInPlaceMatchReference: inside every sink call of ReadInto,
// the ACTB version-2 decoder's and the text decoder's one record is the
// reference decoder's record, field for field, on the 14 ports at scales 0 and 4 and on random records of distinct
// shapes, read in memory and fed in random cuts. The ACTB traces of scale
// 4, the smaller, and of the random records are also fed one byte at a time, so that
// every record is cut at every byte: a template reference starved partway
// has written some of its values into its Template, and is decoded again once
// the rest arrive. (The text reader hands its decoder whole blocks only.)
func TestDecodersInPlaceMatchReference(t *testing.T) {
	var traces []inPlaceTrace
	add := func(label string, recs []trace.Record, byByte bool) {
		traces = append(traces,
			inPlaceTrace{label + " ACTB", trace.EncodeBinary(recs), byByte},
			inPlaceTrace{label + " text", trace.EncodeAll(recs), false})
	}
	for _, p := range progs.All() {
		for _, scale := range []int{0, 4} {
			mod, err := interp.Compile(p.Source(scale))
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			recs, _, err := interp.TraceProgram(mod)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			add(fmt.Sprintf("%s scale %d", p.Name, scale), recs, scale == 4)
		}
	}
	add("distinct shapes", trace.RandomRecords(rand.New(rand.NewSource(5)), 1500), true)
	for _, tr := range traces {
		var want []trace.Record
		var err error
		if trace.DetectFormat(tr.data) == trace.FormatBinary {
			want, err = trace.ReferenceParseV2(tr.data)
		} else {
			want, err = trace.ReferenceParse(tr.data)
		}
		if err != nil {
			t.Fatalf("%s: reference: %v", tr.label, err)
		}
		feeds := map[string]*rand.Rand{"random cuts": rand.New(rand.NewSource(int64(len(tr.data))))}
		if tr.byByte {
			feeds["one byte at a time"] = nil
		}
		check := func(how string, read func(trace.Sink) error) {
			s := &inPlaceSink{want: want, places: map[uint32][2]*trace.Record{}}
			switch err := read(s.observe); {
			case err != nil:
				t.Errorf("%s %s: %v", tr.label, how, err)
			case s.diffs != "":
				t.Errorf("%s %s: %s", tr.label, how, s.diffs)
			case s.n != len(want):
				t.Errorf("%s %s: %d records, reference %d", tr.label, how, s.n, len(want))
			}
		}
		check("in memory", func(sink trace.Sink) error {
			rd, _, err := trace.NewBytesReader(tr.data)
			if err != nil {
				return err
			}
			return rd.ReadInto(sink)
		})
		for how, rng := range feeds {
			check(how, func(sink trace.Sink) error {
				rd := trace.NewFedReader()
				for data := tr.data; len(data) > 0; {
					n := 1
					if rng != nil {
						n = min(1+rng.Intn(97), len(data))
					}
					rd.Feed(data[:n])
					data = data[n:]
					if err := rd.ReadInto(sink); err != nil {
						return err
					}
				}
				rd.CloseFeed()
				return rd.ReadInto(sink)
			})
		}
	}
}
