// Package mathx provides the numerical routines the photonic-link models
// are built on: the inverse complementary error function used by the
// BER/SNR relations (paper Eq. 1 and 3), bracketing root finders used to
// invert the Hamming post-decoding BER (Eq. 2) and the laser thermal model,
// decibel conversions, grids and the Wilson interval of the Monte-Carlo
// validator.
//
// Everything in this package is pure and allocation-light; only the Go
// standard library is used.
package mathx

import (
	"fmt"
	"math"
)

// DB converts a linear power ratio to decibels (10·log10).
// DB(0) is -Inf; negative ratios yield NaN.
func DB(ratio float64) float64 {
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio (10^(db/10)).
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// Clamp limits x to the inclusive range [lo, hi].
// It panics if lo > hi, which is always a programming error.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic(fmt.Sprintf("mathx: Clamp with inverted bounds [%g, %g]", lo, hi))
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// Linspace returns n points evenly spaced over [lo, hi] inclusive.
// n must be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding on the last point
	return out
}

// Logspace returns n points evenly spaced in log10 over [lo, hi] inclusive.
// Both bounds must be positive and n must be at least 2.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("mathx: Logspace needs positive bounds")
	}
	exps := Linspace(math.Log10(lo), math.Log10(hi), n)
	out := make([]float64, n)
	for i, e := range exps {
		out[i] = math.Pow(10, e)
	}
	out[0], out[n-1] = lo, hi
	return out
}

// ApproxEqual reports whether a and b agree to within relative tolerance rel
// (or absolute tolerance rel when both are smaller than 1 in magnitude).
func ApproxEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= rel
	}
	return diff <= rel*scale
}
