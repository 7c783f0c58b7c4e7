package export

import (
	"math"
	"strconv"
)

// fixedLimit bounds the magnitudes appendFixed formats itself: below it,
// x·10 stays under 2^50, so the scaled value's integer part is exact and
// its unit in the last place is at most 2^-3 (see appendFixed).
const fixedLimit = 1e14

// appendFixed appends x with prec digits after the decimal point (prec 0
// or 1), byte for byte as strconv.AppendFloat(dst, x, 'f', prec, 64) does:
// rounded to nearest on x's exact binary value, ties to even, the sign
// kept for negative zero and for negatives that round to zero ("-0.0").
// strconv sends every fixed-precision 'f' call down its multiprecision
// path; this one rounds the exact product x·10^prec, whose residual the
// fused multiply-add recovers, and falls back to strconv for other
// precisions, non-finite values and magnitudes from fixedLimit.
func appendFixed(dst []byte, x float64, prec int) []byte {
	a := math.Abs(x)
	if prec < 0 || prec > 1 || !(a < fixedLimit) {
		return strconv.AppendFloat(dst, x, 'f', prec, 64)
	}
	scale := 1.0
	if prec == 1 {
		scale = 10
	}
	// a·scale = p + r exactly, with |r| ≤ ulp(p)/2 ≤ 2^-4; below 0.5 the
	// value rounds to 0. From 0.5, p + 0.5 is exact or lands in the next
	// binade, which starts at an integer and reaches less than 1 past it,
	// so its rounding never crosses an integer: truncating it rounds p to
	// nearest, ties up. p's fraction and 0.5 are multiples of ulp(p), so
	// unless the fraction is exactly one half it lies a whole ulp or more
	// from it, beyond where r can move the exact value: only at a tie on p
	// do r and evenness decide.
	p := a * scale
	r := math.FMA(a, scale, -p)
	var u uint64
	if p >= 0.5 {
		u = uint64(p + 0.5)
		if float64(u)-p == 0.5 && (r < 0 || r == 0 && u&1 == 1) {
			u--
		}
	}
	var buf [24]byte
	i := len(buf)
	if prec == 1 {
		i -= 2
		buf[i], buf[i+1] = '.', byte('0'+u%10)
		u /= 10
	}
	for u >= 100 {
		q := u / 100
		d := 2 * (u - 100*q)
		i -= 2
		buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		i--
		buf[i] = byte('0' + u)
	}
	if math.Signbit(x) {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// digitPairs holds "00" to "99": two digits per division.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
