package trace_test

import (
	"bytes"
	"math/rand"
	"testing"

	"autocheck/internal/interp"
	"autocheck/internal/progs"
	"autocheck/internal/trace"
)

// BenchmarkDecodeACTB decodes the ACTB traces of the 14 ports at scale 24,
// written by this package's BinaryWriter, through ReadInto: one op of
// /ports is the 14 traces. /distinct-shapes is one trace of 20,000 random
// records, whose shapes hardly repeat, so nearly every record is a
// template definition. It reports the decode in ns/record and the
// encoding's size in B/record.
//
//	go test -run '^$' -bench DecodeACTB -benchmem ./internal/trace/
func BenchmarkDecodeACTB(b *testing.B) {
	var traces [][]byte
	for _, p := range progs.All() {
		mod, err := interp.Compile(p.Source(24))
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		data, _, err := interp.TraceProgramBinary(mod)
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		traces = append(traces, data)
	}
	b.Run("ports", func(b *testing.B) { decodeAll(b, traces) })
	b.Run("distinct-shapes", func(b *testing.B) {
		decodeAll(b, [][]byte{trace.EncodeBinary(distinctShapes())})
	})
}

// BenchmarkDecodeText is BenchmarkDecodeACTB for the text traces of the
// same 14 ports at scale 24, written by NewRecordWriter(…, FormatText),
// and of the same 20,000 random records, whose blocks the decoder parses
// field by field: the decode in ns/record and the encoding's size in
// B/record.
//
//	go test -run '^$' -bench DecodeText -benchmem ./internal/trace/
func BenchmarkDecodeText(b *testing.B) {
	var traces [][]byte
	for _, p := range progs.All() {
		mod, err := interp.Compile(p.Source(24))
		if err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		var buf bytes.Buffer
		w := trace.NewRecordWriter(&buf, trace.FormatText)
		if _, err := interp.TraceProgramTo(mod, w); err != nil {
			b.Fatalf("%s: %v", p.Name, err)
		}
		traces = append(traces, buf.Bytes())
	}
	b.Run("ports", func(b *testing.B) { decodeAll(b, traces) })
	b.Run("distinct-shapes", func(b *testing.B) {
		decodeAll(b, [][]byte{trace.EncodeAll(distinctShapes())})
	})
}

// distinctShapes is the trace of the distinct-shapes cases.
func distinctShapes() []trace.Record {
	return trace.RandomRecords(rand.New(rand.NewSource(1)), 20000)
}

// decodeAll times decoding traces the way the analysis reads them,
// through ReadInto, each record handed in place to a sink that counts it:
// one op is every trace once.
func decodeAll(b *testing.B, traces [][]byte) {
	size := 0
	for _, data := range traces {
		size += len(data)
	}
	records := 0
	count := func(recs []trace.Record, _ []uint32) { records += len(recs) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = 0
		for _, data := range traces {
			rd, _, err := trace.NewBytesReader(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := rd.ReadInto(count); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records*b.N), "ns/record")
	b.ReportMetric(float64(size)/float64(records), "B/record")
}
