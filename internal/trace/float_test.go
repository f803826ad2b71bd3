package trace

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// floatCases returns the decimal strings TestScanFloatMatchesStrconv holds
// scanFloat to strconv.ParseFloat on, n of each kind from rng; the first
// written of them are floats as the writer writes them
// (FloatValue(f).String() of a normal or zero f).
func floatCases(rng *rand.Rand, n int) (cases []string, written int) {
	normal := func() float64 {
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) && math.Abs(f) >= 0x1p-1022 {
				return f
			}
		}
	}
	digits := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	exps := []int{-22, 22, -23, 23, -308, 308, -307, 307, -309, 309, -324, -325, -343, -348, -349, 347, 348, -400, 400}
	for range n {
		cases = append(cases, FloatValue(normal()).String())
	}
	cases = append(cases, FloatValue(0).String(), FloatValue(math.Copysign(0, -1)).String())
	written = len(cases)
	for range n {
		f := normal()
		// Random bits in the shortest 'g', 'e' and 'f' forms, and in 'e'
		// with 17 to 20 significant digits.
		cases = append(cases,
			strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'e', -1, 64),
			strconv.FormatFloat(f, 'e', 16+rng.Intn(4), 64))
		if math.Abs(f) < 1e25 && math.Abs(f) > 1e-25 {
			cases = append(cases, strconv.FormatFloat(f, 'f', -1, 64))
		}
		// Near halfway: the exact midpoint between f and its successor,
		// cut to 17 to 19 digits, and nudged by one in its last digit.
		mid := new(big.Float).SetPrec(128).SetFloat64(f)
		mid.Add(mid, new(big.Float).SetFloat64(math.Nextafter(f, math.Inf(1))))
		mid.Quo(mid, big.NewFloat(2))
		s := mid.Text('e', 16+rng.Intn(3))
		cases = append(cases, s, nudge(s, rng.Intn(2) == 0))
		// Subnormals.
		sub := math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		cases = append(cases, strconv.FormatFloat(sub, 'g', -1, 64), strconv.FormatFloat(-sub, 'e', 16, 64))
		// 17 to 20 digits with a point somewhere, at an exponent near a
		// boundary of the fast paths or of the float64 range.
		d := digits(17 + rng.Intn(4))
		at := 1 + rng.Intn(len(d)-1)
		cases = append(cases, fmt.Sprintf("%s.%se%d", d[:at], d[at:], exps[rng.Intn(len(exps))]))
		// 1 to 19 digits at such an exponent and at any in range.
		d = digits(1 + rng.Intn(19))
		cases = append(cases,
			fmt.Sprintf("%se%d", d, exps[rng.Intn(len(exps))]),
			fmt.Sprintf("-%s.0E+%d", d, rng.Intn(30)),
			fmt.Sprintf("0.%se%d", d, rng.Intn(700)-350))
	}
	return append(cases, "-0.0", "-0e5", "0.000", "0e99999999", "-0.0e-400", "1e400", "-1e400", "1e-400",
		"NaN", "+Inf", "-Inf", "+1.5", "5.", ".5", "1e", "1e+", "-", "", "1.5.5", "1e5e5", "1_0.5", "0x1p-2",
		"9007199254740993.0", "9007199254740992.0", "123456789012345678901.5", "2.2250738585072011e-308",
		"4.9406564584124654e-324", "1.7976931348623157e308", "1.7976931348623159e308"), written
}

// nudge adds or takes one from the last mantissa digit of s, an 'e' form
// whose last mantissa digit is not 0 when down or 9 when up.
func nudge(s string, up bool) string {
	e := strings.IndexByte(s, 'e')
	b := []byte(s)
	switch c := b[e-1]; {
	case up && c < '9':
		b[e-1]++
	case !up && c > '0':
		b[e-1]--
	}
	return string(b)
}

// Property: scanFloat gives strconv.ParseFloat's value bit for bit, and a
// field it accepts is one strconv accepts, or it leaves the field to
// strconv — over more than 10^6 strings: random bits in 'g', 'e' and 'f'
// forms, near-halfway decimals, subnormals, signed zeros, 17 to 20 digits
// and exponents at ±22, ±308, ±400 and the ends of Eisel-Lemire's table.
// Nearly every float the writer writes must be read without strconv: all
// but the few Eisel-Lemire cannot decide, such as 3854079811926996.5, an
// exact float64 whose 17 digits are above 2^53 (strconv's own fast paths
// leave those to its slow one too); of the 14 ports' 858,157 float values
// at scale 24, none.
func TestScanFloatMatchesStrconv(t *testing.T) {
	cases, written := floatCases(rand.New(rand.NewSource(1)), 90_000)
	if len(cases) < 1_000_000 {
		t.Fatalf("only %d cases", len(cases))
	}
	read, leftWritten := 0, 0
	for i, s := range cases {
		f, end, ok := scanFloat([]byte(s), 0)
		if !ok {
			if i < written {
				leftWritten++
			}
			continue
		}
		read++
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || end != len(s) || math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("scanFloat(%q) = %v (%#x), end %d; strconv: %v (%#x), %v",
				s, f, math.Float64bits(f), end, want, math.Float64bits(want), err)
		}
	}
	t.Logf("%d cases, %d read by scanFloat, %d left to strconv, %d of them of the %d written floats",
		len(cases), read, len(cases)-read, leftWritten, written)
	if leftWritten*1000 > written {
		t.Errorf("scanFloat left %d of %d written floats to strconv, want at most 0.1%%", leftWritten, written)
	}
}

// FuzzScanValue holds the value scanners to the reference's value parse
// (refValue, strconv throughout): scanValue, which reads a field up to its
// comma, gives refValue's value bit for bit or its error string, and
// scanRegister, whatever kind the template's value had, reads a field that
// ends at a comma exactly when refValue accepts it, to the same value, and
// never one that runs into the next line.
func FuzzScanValue(f *testing.F) {
	for _, s := range []string{"1.5", "-0.0", "7", "-7", "+7", "0x10", "-0x10", "0X10", "1e400", "-1e400",
		"1e-400", "NaN", "+Inf", "-Inf", "5.", ".5", "+1.5", "1e+06", "2.5E-3", "4.9406564584124654e-324",
		"9007199254740993.0", "123456789012345678901.5", "0.1,1,p", "1.5\n,1", "1_0.5", "0x1p-2", "", "-",
		"12345678", "123456789,", "00000000012", "9223372036854775807", "-9223372036854775808", "9223372036854775808",
		"18446744073709551616", "1234567:", "0.30000000000000004", "12345678901.234567890e-5"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		c := nextComma(line, 0)
		want, werr := refValue(line[:c])
		var v Value
		end, err := scanValue(line, 0, &v)
		if fmt.Sprint(err) != fmt.Sprint(werr) || err == nil && (end != c || !sameValue(v, want)) {
			t.Fatalf("scanValue(%q) = %v, end %d, %v; reference %v, end %d, %v", line, v, end, err, want, c, werr)
		}
		field := append(line[:c:c], ",1,p\n"...)
		newline := strings.IndexByte(string(line[:c]), '\n') >= 0
		for _, kind := range []ValueKind{KindInt, KindFloat, KindPtr} {
			v := Value{Kind: kind}
			end, ok := scanRegister(field, 0, &v)
			if ok != (werr == nil && !newline) || ok && (end != c || !sameValue(v, want)) {
				t.Fatalf("scanRegister(%q) with a %d template = %v, end %d, %v; reference %v, %v",
					field, kind, v, end, ok, want, werr)
			}
		}
	})
}

func sameValue(a, b Value) bool { return a.Kind == b.Kind && a.bits == b.bits }
