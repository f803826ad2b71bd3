package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refScanHex is scanHex a byte at a time, as it was before hexRun: the
// reference the word-at-a-time scan is held to.
func refScanHex(b []byte, p int) (v uint64, end int, ok bool) {
	i := p
	for ; i < len(b) && b[i] != ','; i++ {
		var d uint64
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, 0, false
		}
		if v > math.MaxUint64>>4 {
			return 0, 0, false
		}
		v = v<<4 | d
	}
	return v, i, i > p
}

// TestScanHexMatchesByteLoop holds scanHex to refScanHex on runs of 1 to
// 20 digits — either case, leading zeros, runs of 16 significant digits
// and of more — ended by a ',', by the slice's end or by anything else,
// at every offset within an eight-byte word, and with a bad byte at every
// position: the neighbours of each digit range, a byte with its high bit
// set, one whose low seven bits are a digit, and a line break.
func TestScanHexMatchesByteLoop(t *testing.T) {
	const digits = "0123456789abcdefABCDEF"
	bad := []byte{'/', ':', '@', 'G', '`', 'g', 'x', ' ', '\n', ',', 0, 0x10, 0x19, 0x7f, 0x80, 0xb0, 0xc1, 0xe6, 0xff}
	rng := rand.New(rand.NewSource(1))
	check := func(b []byte, p int) {
		t.Helper()
		v, end, ok := scanHex(b, p)
		wv, wend, wok := refScanHex(b, p)
		if v != wv || end != wend || ok != wok {
			t.Fatalf("scanHex(%q, %d) = %#x, %d, %v; the byte loop gives %#x, %d, %v", b, p, v, end, ok, wv, wend, wok)
		}
	}
	n := 0
	for length := 1; length <= 20; length++ {
		for trial := 0; trial < 40; trial++ {
			run := make([]byte, length)
			for i := range run {
				run[i] = digits[rng.Intn(len(digits))]
			}
			if trial%4 == 0 { // leading zeros
				for i := 0; i < length && i < rng.Intn(length+1); i++ {
					run[i] = '0'
				}
			}
			pad := rng.Intn(8)
			for _, tail := range []string{"", ",", ",1,x", "\n", "g,"} {
				b := fmt.Appendf(nil, "%s%s%s", make([]byte, pad), run, tail)
				check(b, pad)
				n++
				for at := 0; at < length; at++ {
					for _, c := range bad {
						w := append([]byte(nil), b...)
						w[pad+at] = c
						check(w, pad)
						n++
					}
				}
			}
		}
	}
	// 16 significant digits fit and a 17th overflows, after any number of
	// leading zeros.
	for zeros := 0; zeros <= 9; zeros++ {
		for _, run := range []string{"ffffffffffffffff", "1ffffffffffffffff", "10000000000000000", "8000000000000000"} {
			b := fmt.Appendf(nil, "%0*d%s,", zeros, 0, run)
			if zeros == 0 {
				b = fmt.Appendf(nil, "%s,", run)
			}
			check(b, 0)
			n++
		}
	}
	t.Logf("%d fields", n)
}
