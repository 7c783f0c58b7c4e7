package export

import (
	"math"
	"strconv"
	"testing"
)

// FuzzAppendFixed checks appendFixed against strconv.AppendFloat's 'f'
// format at precisions 0 and 1 for arbitrary float64 bits.
func FuzzAppendFixed(f *testing.F) {
	seeds := []float64{
		// Exact binary ties at both precisions, and near-ties that are not.
		0.25, 0.35, 0.5, 1.5, 2.5, -2.5, 0.75, 12.25, 12.75, 1e13 + 0.5, 1e13 + 1.5,
		// -0.04 prints "-0.0", -0 prints "-0" / "-0.0".
		-0.04, math.Copysign(0, -1), 0, -0.5, -0.05,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
		// Either side of the fallback boundary.
		fixedLimit, math.Nextafter(fixedLimit, 0), math.Nextafter(fixedLimit, math.Inf(1)), -fixedLimit,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		123.45, 799.95, 399.95000000000005,
	}
	// k + 0.05 is a decimal tie at one digit; its binary value falls
	// either side of it.
	for k := 0; k < 40; k++ {
		seeds = append(seeds, float64(k)+0.05, float64(k)+0.15, float64(k)+0.45)
	}
	for _, x := range seeds {
		f.Add(math.Float64bits(x))
		// One ULP either side of every seed.
		f.Add(math.Float64bits(math.Nextafter(x, math.Inf(1))))
		f.Add(math.Float64bits(math.Nextafter(x, math.Inf(-1))))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		// Random bits are mostly huge or tiny; math.Mod (exact) also folds
		// x into the range map coordinates take.
		for _, x := range []float64{x, math.Mod(x, 4096)} {
			for prec := 0; prec <= 1; prec++ {
				want := strconv.AppendFloat(nil, x, 'f', prec, 64)
				if got := appendFixed([]byte("x"), x, prec); string(got[1:]) != string(want) {
					t.Errorf("appendFixed(%v (%#x), %d) = %s, strconv %s", x, math.Float64bits(x), prec, got[1:], want)
				}
			}
		}
	})
}
