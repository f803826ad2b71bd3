package trace

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// FuzzParseTrace exercises both decoders — the allocation-free text
// decoder and the binary decoder — on arbitrary bytes. Neither may panic;
// bytes that sniff as text must decode to exactly what the reference text
// decoder (reference_test.go) makes of them, records or error string, with
// a template id per record, one static half per id (textIDContract), and
// bytes that sniff as ACTB to what the reference ACTB decoder of the
// version they announce (sameACTBDecode) makes of them; whatever the bytes
// sniff as, a stream of
// them refilled in small uneven Reads must decode exactly as the same
// bytes in memory do, and so must the same bytes fed in small uneven cuts,
// and the same bytes read through the sink path (ReadInto), each record
// cloned inside its call, to the same records or the same error string.
func FuzzParseTrace(f *testing.F) {
	recs := sampleRecords()
	f.Add(EncodeAll(recs))
	f.Add(EncodeBinary(recs))
	f.Add(EncodeAll(randomRecords(rand.New(rand.NewSource(3)), 40)))
	f.Add(EncodeBinary(randomRecords(rand.New(rand.NewSource(4)), 40)))
	f.Add([]byte("0,1,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,5,1,8\n"))
	f.Add([]byte("0,-1,main,entry,26,0\n"))
	f.Add([]byte("garbage\n"))
	f.Add(resultFirstBlocks(3))
	for _, line := range malformedLines {
		f.Add([]byte("0,1,f,b,27,1\n" + line + "\n0,2,f,b,2,2\n"))
	}
	f.Add(append(append([]byte{}, binaryMagic...), binaryVersion, 0))
	f.Add(append(append([]byte{}, binaryMagic...), templateVersion, 0))
	f.Add(encodeBinaryV1(recs))
	f.Add(EncodeBinary(repeatedRecords(8)))
	// The version-1 fixture's head (header, string introductions and its
	// first records, cut mid-record), not all of it: the fuzzer's
	// minimization of an input grown from 231 KB stalls a smoke run.
	// TestV2MatchesReferenceAndRoundTrips holds the whole fixture to its
	// reference.
	fixture, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture[:4096])
	f.Add(EncodeBinary(mustParse(f, fixture[:4096])))
	// An ACTB name the text format cannot carry: must be rejected, or the
	// re-encode checks below see a trace that does not survive conversion.
	f.Add(EncodeBinary([]Record{{Line: 6, Func: "a,b", Block: "c", Opcode: OpBr, DynID: 1}}))
	// Blocks that try to fool a text template: each follows three copies of
	// the block whose shape it nearly has — the second makes the template,
	// the third decodes from it — and is followed by one more.
	for _, fool := range templateFools {
		f.Add([]byte(fool.base + fool.base + fool.base + fool.block + fool.base))
	}
	// A register value whose kind changes under one template — the kind a
	// template's value had is only the form scanned first — or that takes
	// a form the float scan leaves to strconv.
	for _, c := range kindChanges {
		base, block := kindBlock(1, c.from), kindBlock(9, c.to)
		f.Add([]byte(base + base + base + block + base))
	}
	// A header too short to be a template's, once there are templates.
	f.Add([]byte("0,5,f,b,27,0\n1,1,64,0,1,p\n0,5,f,b,27,0\n1,1,64,0,1,p\n0,,,,,"))
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, serr := ParseBytes(data)
		if DetectFormat(data) == FormatText {
			if err := sameDecode(data, serial, serr); err != nil {
				t.Fatalf("in-place decode of %q: %v", data, err)
			}
			if err := textIDContract(data); err != nil {
				t.Fatalf("template ids of %q: %v", data, err)
			}
		} else {
			if err := sameACTBDecode(data, serial, serr); err != nil {
				t.Fatalf("cursor decode of %q: %v", data, err)
			}
		}
		// The binary decoder must never panic either.
		_, _ = ParseBinary(data)
		// Stream = bytes: the same records, then the same verdict.
		var want, got []Record
		mem, _, merr := NewBytesReader(data)
		if merr == nil {
			want, merr = drain(mem)
		}
		st, _, sterr := NewAutoReader(newChunkReader(data, int64(crc32.ChecksumIEEE(data))))
		if sterr == nil {
			got, sterr = drain(st)
		}
		if (merr == nil) != (sterr == nil) || !equalModuloNaN(want, got) {
			t.Fatalf("stream and in-memory reads of %q disagree: %d records, %v vs %d records, %v",
				data, len(got), sterr, len(want), merr)
		}
		// Fed = bytes: the same records, then the same error string.
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		var cuts []int
		for n := 0; n < len(data); {
			cuts = append(cuts, 1+rng.Intn(97))
			n += cuts[len(cuts)-1]
		}
		got, ferr := drain(newFedReader(data, append(cuts, 1)...))
		if fmt.Sprint(merr) != fmt.Sprint(ferr) || !equalModuloNaN(want, got) {
			t.Fatalf("fed and in-memory reads of %q disagree (cuts %v): %d records, %v vs %d records, %v",
				data, cuts, len(got), ferr, len(want), merr)
		}
		if serr != nil {
			return
		}
		// Successful parses re-encode to a canonical form that parses to
		// the same records on every path (text and binary alike).
		canon := EncodeAll(serial)
		again, err := ParseBytes(canon)
		if err != nil {
			t.Fatalf("re-parse of re-encoded trace failed: %v", err)
		}
		viaBinary, err := ParseBinary(EncodeBinary(serial))
		if err != nil {
			t.Fatalf("binary roundtrip failed: %v", err)
		}
		if len(serial) > 0 {
			if !equalModuloNaN(serial, again) {
				t.Fatalf("text re-encode not stable")
			}
			if !equalModuloNaN(serial, viaBinary) {
				t.Fatalf("binary roundtrip not identical")
			}
		}
	})
}

// templateFools are the blocks FuzzParseTrace seeds its corpus with to
// fool a text template: each block nearly has the shape of base.
var templateFools = []struct{ base, block string }{
	// A repeated header followed by other operand lists.
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,s\nr,0,64,7,1,q\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\n1,2,64,0x10,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\n", "0,5,f,b,27,9\n1,1,64,0x10,0,p\n"},
	// A value field holding a comma, running into the next line, or of
	// another kind; a DynID that does not end the line.
	{"0,5,f,b,27,1\n1,1,64,7,1,p\n", "0,5,f,b,27,9\n1,1,64,7,1,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,7,1,p\n", "0,5,f,b,27,9\n1,1,64,7\n1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,7,1,p\n", "0,5,f,b,27,9\n1,1,64,-0x7,1,p\n0,5,f,b,27,9\n1,1,64,1.5e3,1,p\n0,5,f,b,27,9\n1,1,64,+7,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,7,1,p\n", "0,5,f,b,27,9,1\n1,1,64,7,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,7,1,p\n", "0,5,f,b,27,9x\n1,1,64,7,1,p\n"},
	// CRLF line ends after an LF-defined template.
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\r\n1,1,64,0x10,1,p\r\nr,0,64,7,1,q\r\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\nr,0,64,7,1,q\r\n"},
	// An empty line inside a block, and after one.
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\n\nr,0,64,7,1,q\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n\n"},
	// A result mid-block, and a repeated result.
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\nr,0,64,7,1,q\n1,1,64,0x10,1,p\n"},
	{"0,5,f,b,27,1\n1,1,64,0x10,1,p\nr,0,64,7,1,q\n", "0,5,f,b,27,9\n1,1,64,0x10,1,p\nr,0,64,7,1,q\nr,0,64,8,1,q\n"},
	// A non-register operand whose constant changes.
	{"0,6,f,b,28,1\n1,1,64,5,0,\n1,2,64,0x20,1,p\n", "0,6,f,b,28,9\n1,1,64,6,0,\n1,2,64,0x20,1,p\n"},
}

// kindChanges are the register values FuzzParseTrace seeds its corpus
// with under a template learned with another: int to float, and float to
// a negated pointer, to forms strconv alone reads and to ones it rejects.
var kindChanges = []struct{ from, to string }{
	{"7", "2.5"}, {"2.5", "7"}, {"2.5", "0x10"}, {"2.5", "-0x7"}, {"2.5", "+1.5"}, {"2.5", "5."}, {"2.5", ".5"},
	{"2.5", "1e400"}, {"2.5", "1e-400"}, {"2.5", "NaN"}, {"2.5", "-Inf"}, {"2.5", "123456789012345678901.5"},
	{"2.5", "1.5e"}, {"0x10", "2.5"},
}

// kindBlock is a block of one shape whose register input and result hold
// v.
func kindBlock(dyn int, v string) string {
	return fmt.Sprintf("0,5,f,b,27,%d\n1,1,64,%s,1,p\nr,0,64,%s,1,q\n", dyn, v, v)
}

// textIDContract reads a text trace, in memory and fed in small uneven
// cuts, up to its end or its first error, and reports where the reader
// has not handed on an id per record or two records share an id but not
// a static half.
func textIDContract(data []byte) error {
	mem, _, err := NewBytesReader(data)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(len(data))))
	var cuts []int
	for n := 0; n < len(data); n += cuts[len(cuts)-1] {
		cuts = append(cuts, 1+rng.Intn(29))
	}
	for _, rd := range []Reader{mem, newFedReader(data, append(cuts, 1)...)} {
		var b RecordBatch
		_ = rd.ReadInto(b.Add)
		if len(b.TemplateIDs) != len(b.Recs) {
			return fmt.Errorf("%d records have %d template ids", len(b.Recs), len(b.TemplateIDs))
		}
		if err := sameStaticHalves(b.Recs, b.TemplateIDs); err != nil {
			return err
		}
	}
	return nil
}

// equalModuloNaN is reflect.DeepEqual except that NaN values (which
// compare unequal to themselves) are compared by bit pattern kind.
func equalModuloNaN(a, b []Record) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	ta, tb := EncodeAll(a), EncodeAll(b)
	return bytes.Equal(ta, tb)
}

// mustParse decodes the records data holds before it ends mid-record.
func mustParse(f *testing.F, data []byte) []Record {
	rd, _, err := NewBytesReader(data)
	if err != nil {
		f.Fatal(err)
	}
	var b RecordBatch
	_ = rd.ReadInto(b.Add)
	return b.Recs
}
