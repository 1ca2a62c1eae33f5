package ecc

import (
	"fmt"
	"math"

	"photonoc/internal/mathx"
)

// SNRForRawBER inverts paper Eq. 3: the SNR at which the raw (pre-decoding)
// bit error probability equals ber, i.e. SNR = [erfc⁻¹(2·ber)]².
//
// Note on Eq. 1: the paper prints SNR = [erfc⁻¹(1−2·BER)]², which is this
// same relation expressed through erf⁻¹ (erfc⁻¹(1−y) = erf⁻¹(y)) with the
// function name mis-typeset; taken literally it would give SNR → 0 as
// BER → 0. We implement the physically meaningful form.
func SNRForRawBER(ber float64) (float64, error) {
	if !(ber > 0 && ber <= 0.5) {
		return 0, fmt.Errorf("ecc: raw BER %g outside (0, 0.5]", ber)
	}
	x := mathx.ErfcInv(2 * ber)
	return x * x, nil
}

// RawBERFromSNR is paper Eq. 3: p = ½·erfc(√SNR).
func RawBERFromSNR(snr float64) float64 {
	if snr < 0 {
		return 0.5
	}
	return 0.5 * mathx.Erfc(math.Sqrt(snr))
}

// PaperHammingBER is paper Eq. 2: the post-decoding BER of a single-error-
// correcting block code of length n at raw bit error probability p,
// BER = p − p·(1−p)^(n−1).
func PaperHammingBER(n int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	ber, _ := eq2(n, p)
	return ber
}

// eq2 evaluates Eq. 2 at p in (0, 1) without cancellation, as
// BER = −p·expm1((n−1)·ln(1−p)), together with its slope
// dBER/dp = (1 − (1−p)^(n−1)) + p·(n−1)·(1−p)^(n−2) from the same log1p.
// The textbook p − p·(1−p)^(n−1) is only good to ≈1e-16/p relative and
// reads 0 below p ≈ 1e-17.
func eq2(n int, p float64) (ber, dBERdP float64) {
	ln1mP := math.Log1p(-p)
	miss := -math.Expm1(float64(n-1) * ln1mP) // 1 − (1−p)^(n−1)
	return p * miss, miss + p*float64(n-1)*math.Exp(float64(n-2)*ln1mP)
}

// UnionBoundBER is the standard post-decoding bit-error model for a
// t-error-correcting (n, k) block code:
//
//	BER ≈ (1/n) · Σ_{i=t+1}^{n} (i + t) · C(n, i) · p^i · (1−p)^(n−i)
//
// (each uncorrectable weight-i pattern leaves about i+t wrong bits after a
// bounded-distance decoder misfires). Used for the BCH extensions.
func UnionBoundBER(n, t int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	var sum float64
	for i := t + 1; i <= n; i++ {
		sum += float64(i+t) * binomialTerm(n, i, p)
	}
	return math.Min(sum/float64(n), 1)
}

// binomialTerm returns C(n, i)·p^i·(1−p)^(n−i), computed in log space so
// large n and tiny p do not underflow prematurely.
func binomialTerm(n, i int, p float64) float64 {
	lg := lchoose(n, i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p)
	return math.Exp(lg)
}

// lchoose returns ln C(n, k) via log-gamma.
func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// RequiredSNR composes the two inversions: the channel SNR needed so the
// post-decoding BER under code c reaches target.
func RequiredSNR(c Code, target float64) (float64, error) {
	p, err := PlanFor(c).RequiredRawBER(target)
	if err != nil {
		return 0, err
	}
	return SNRForRawBER(p)
}

// CodingGainDB returns the SNR advantage (in dB) of code c over uncoded
// transmission at the same target BER.
func CodingGainDB(c Code, target float64) (float64, error) {
	snrCoded, err := RequiredSNR(c, target)
	if err != nil {
		return 0, err
	}
	snrUncoded, err := SNRForRawBER(target)
	if err != nil {
		return 0, err
	}
	return mathx.DB(snrUncoded / snrCoded), nil
}
