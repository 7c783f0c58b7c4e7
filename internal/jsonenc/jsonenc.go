// Package jsonenc appends JSON scalars byte for byte as encoding/json
// encodes them, for the hand-written encoders of GeoJSON maps (package
// export) and query answers (package webapi). It holds no state and
// allocates only when dst must grow.
package jsonenc

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a finite f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21, with a
// one-digit negative exponent unpadded (1e-7, not 1e-07). An integral f
// below 1e15 in magnitude — counts, and the sums of integer measures —
// prints as the integer it is, which is what the shortest form is there;
// −0 keeps its sign and takes the general path.
func AppendFloat(dst []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// plain marks the bytes encoding/json copies into a string unescaped:
// printable ASCII and DEL, except the quote, the backslash and the HTML
// characters <, > and &.
var plain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string escaped as encoding/json escapes
// it by default: quotes, backslashes and control characters, the HTML
// characters <, > and &, U+2028 and U+2029, and each byte of invalid UTF-8
// as the escaped replacement character (�). A string of plain bytes
// only — group names, column headers — is checked and copied in one step.
func AppendString(dst []byte, s string) []byte {
	i := 0
	for i < len(s) && plain[s[i]] {
		i++
	}
	dst = append(dst, '"')
	if i == len(s) {
		return append(append(dst, s...), '"')
	}
	start := 0
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\\ufffd"...)
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
