package mathx

import "math"

// WilsonInterval returns the Wilson score confidence interval for a binomial
// proportion with k successes out of n trials at normal quantile z
// (z = 1.96 for 95 %). It is the interval the Monte-Carlo BER validator
// reports, because it behaves sanely when k is 0 or tiny — exactly the regime
// of bit-error counting.
func WilsonInterval(k, n int64, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}
