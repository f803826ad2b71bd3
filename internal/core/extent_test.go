package core

import (
	"bytes"
	"errors"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"

	"autocheck/internal/trace"
)

// specsFrom derives loop specs from a text trace's own bytes, so that a
// fuzz input aims at its own headers: for a few of its header lines, read
// as raw comma-separated text whether or not they decode, the function
// field with a line range around the line field — and the near misses of
// that name: a proper prefix of it, it with the block field attached by a
// comma (what a compare that ignores field ends would match), and a name
// the trace does not hold.
func specsFrom(data []byte) []LoopSpec {
	var hdrs [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("0,")) {
			hdrs = append(hdrs, line)
		}
	}
	h := int(crc32.ChecksumIEEE(data))
	specs := []LoopSpec{{Function: "nosuch", StartLine: -1 << 40, EndLine: 1 << 40}}
	for k := 0; k < 3 && k < len(hdrs); k++ {
		f := strings.Split(string(hdrs[(h+k*len(hdrs)/3)%len(hdrs)]), ",")
		for len(f) < 4 {
			f = append(f, "")
		}
		ln, _ := strconv.Atoi(f[1])
		lo, hi := ln-(h>>4)%3, ln+(h>>8)%3
		specs = append(specs,
			LoopSpec{f[2], lo, hi},
			LoopSpec{f[2], ln + 1, ln + 5},
			LoopSpec{f[2][:len(f[2])/2], lo, hi},
			LoopSpec{f[2] + "," + f[3], lo, hi})
	}
	return specs
}

// FuzzTextExtent holds the loop's extent in a text trace, as the engine
// finds it, to the plain definition — the first and the last record
// LoopSpec.contains accepts, and the record count — on arbitrary text with
// specs drawn from the text itself (specsFrom): AnalyzeBytes reports those
// region stats, or a *NoLoopError counting every record when no record
// matches, and Analyze over the decoded records the same; text the decoder
// rejects fails AnalyzeBytes with the decoder's error.
func FuzzTextExtent(f *testing.F) {
	const block = "0,17,main,for.body,27,7\n1,1,64,0x10,1,p\nr,0,64,5,1,8\n"
	const pre, post = "0,3,main,entry,26,1\nr,0,64,0x7ff8,1,i\n", "0,30,main,exit,1,9\n"
	for _, seed := range []string{
		pre + block + block + post,
		strings.ReplaceAll(pre+block+post, "\n", "\r\n"),                    // CRLF
		"\n\n" + pre + "\n" + block + "\n\n\n" + block + "\n" + post + "\n", // blank lines
		pre + block + "0,18,main,for.inc,2,9\n1,1,64,0,0,",                  // no trailing newline
		pre + block + "0,18,main,for.inc,2,9",                               // a header at EOF
		pre + block + "0,17,main",                                           // a 3-field header naming the loop function
		pre + block + "0,17",
		pre + block + "0,",
		"0,17,mai,b,27,1\n1,1,64,0x10,1,main\n0,17,main,b,27,2\n0,17,main2,b,27,3\n0,17,ma,b,2,4\n", // a function that prefixes another
		"0,-17,main,b,2,1\n0,+12,main,b,2,2\n0,-0,main,b,2,3\n0,12,main,b,2,4\n",                    // signed line numbers
		pre + "0,99999999999999999999,main,b,2,2\n" + block,                                         // an overflowing line number
		"0,17,a,b,27,1\n0,17,a,b,c,27,2\n0,18,a,b,27,3\n",                                           // "a,b" can never be a decoded Func
		pre + post,                             // no loop
		pre + block,                            // the loop's last record is the last record
		block,                                  // … and its first the first
		"garbage\n" + block,                    // no header on the first line
		"1,1,64,0x10,1,p\n",                    // no header at all
		"0,17,main,b,27,1\r0,17,main,b,27,2\n", // a lone '\r' is not a line break
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if trace.DetectFormat(data) != trace.FormatText {
			return
		}
		recs, perr := trace.ParseBytes(data)
		for _, spec := range specsFrom(data) {
			res, err := AnalyzeBytes(data, spec, DefaultOptions())
			if perr != nil {
				if err == nil || err.Error() != perr.Error() {
					t.Fatalf("AnalyzeBytes(%+v) of %q: error %v, want the decode error %v", spec, data, err, perr)
				}
				continue
			}
			first, last := refExtent(recs, spec)
			want := Stats{Records: len(recs), RegionA: first, RegionB: last - first + 1, RegionC: len(recs) - last - 1}
			offline, oerr := Analyze(recs, spec, DefaultOptions())
			for name, got := range map[string]struct {
				res *Result
				err error
			}{"AnalyzeBytes": {res, err}, "Analyze": {offline, oerr}} {
				var nle *NoLoopError
				switch {
				case first < 0:
					if !errors.As(got.err, &nle) || nle.Records != len(recs) {
						t.Errorf("%s(%+v) of %q: %v, want a *NoLoopError over %d records", name, spec, data, got.err, len(recs))
					}
				case got.err != nil:
					t.Errorf("%s(%+v) of %q: %v", name, spec, data, got.err)
				default:
					if st := got.res.Stats; st.Records != want.Records || st.RegionA != want.RegionA ||
						st.RegionB != want.RegionB || st.RegionC != want.RegionC {
						t.Errorf("%s(%+v) of %q: stats %+v, the decoded records have %+v", name, spec, data, st, want)
					}
				}
			}
		}
	})
}
