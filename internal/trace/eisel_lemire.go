// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in Go's LICENSE file.

package trace

// eiselLemire64 is the Eisel-Lemire algorithm of Go's
// strconv/eisel_lemire.go (Go 1.24), unchanged but for its table, which is
// built on first use (powersOfTen) instead of listed. It is the exact
// decimal-to-float64 conversion scanFloat uses where the one-multiply fast
// path does not apply; see
// https://nigeltao.github.io/blog/2020/eisel-lemire.html and Lemire,
// "Number Parsing at a Gigabyte per Second" (SP&E 2021). ok is false where
// it cannot decide the result, which strconv.ParseFloat then does.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}
	pow := &powersOfTen()[exp10-detailedPowersOfTenMinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of the table. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// powersOfTen returns the table of 128-bit mantissa approximations
// (rounded down) to the powers of ten from 1e-348 to 1e347, each as {low,
// high} 64 bits: for 10^e, the top 128 bits of 10^e when e ≥ 0, and
// ⌊2^(n+127) / 10^-e⌋, n the bit length of 10^-e, when e < 0 — a number of
// 128 bits either way. The exponents are implied by a linear expression
// with slope 217706.0/65536.0 ≈ log(10)/log(2). This is the table strconv
// lists as detailedPowersOfTen, row for row.
var powersOfTen = sync.OnceValue(func() *[detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64 {
	var t [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64
	ten, one := big.NewInt(10), big.NewInt(1)
	var m, p big.Int
	for i := range t {
		e := i + detailedPowersOfTenMinExp10
		p.Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			if n := p.BitLen(); n > 128 {
				m.Rsh(&p, uint(n-128))
			} else {
				m.Lsh(&p, uint(128-n))
			}
		} else {
			m.Lsh(one, uint(p.BitLen()+127))
			m.Quo(&m, &p)
		}
		var w [16]byte
		m.FillBytes(w[:])
		t[i] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
	}
	return &t
})
