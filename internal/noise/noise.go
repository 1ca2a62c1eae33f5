// Package noise validates the paper's raw-BER model (Eq. 3) by direct
// simulation: an OOK decision channel with additive Gaussian noise
// calibrated so that the raw bit error probability is p = ½·erfc(√SNR),
// plus an importance-sampled estimator that reaches the low-BER regime
// (1e-9 and below) where plain Monte-Carlo is hopeless.
//
// Coded (Eq. 2) validation runs elsewhere: a hard-decision OOK channel at
// SNR is exactly a binary symmetric channel with p = ½·erfc(√SNR), so
// internal/mc measures post-decoding rates at ecc.RawBERFromSNR(snr), and
// the OOK channel itself drives the bit-true serdes pipeline through
// Transmit, which flips the received bits in place.
package noise

import (
	"fmt"
	"math"
	"math/rand"

	"photonoc/internal/bits"
	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

// OOKChannel is the detector-referred on-off-keying decision channel. The
// eye is normalized: '1' maps to +1, '0' to −1 (the extinction-ratio and
// crosstalk penalties are already folded into the SNR by the link solver),
// the threshold sits at 0 and the noise is sized so the error probability
// equals ½·erfc(√SNR) — exactly the paper's Eq. 3.
type OOKChannel struct {
	// SNR is the paper's Eq. 4 signal-to-noise ratio.
	SNR float64
	// Rng drives the Gaussian noise.
	Rng *rand.Rand

	sigma float64
}

// NewOOKChannel builds a channel for the given SNR.
func NewOOKChannel(snr float64, rng *rand.Rand) (*OOKChannel, error) {
	if snr <= 0 {
		return nil, fmt.Errorf("noise: SNR %g must be positive", snr)
	}
	if rng == nil {
		return nil, fmt.Errorf("noise: nil RNG")
	}
	// p = Q(1/σ) = ½·erfc(1/(σ√2)) == ½·erfc(√SNR)  ⇒  σ = 1/√(2·SNR).
	return &OOKChannel{SNR: snr, Rng: rng, sigma: 1 / math.Sqrt(2*snr)}, nil
}

// TheoreticalRawBER returns ½·erfc(√SNR) for this channel.
func (c *OOKChannel) TheoreticalRawBER() float64 {
	return ecc.RawBERFromSNR(c.SNR)
}

// TransmitBit sends one bit through the noisy decision and returns the
// received bit.
func (c *OOKChannel) TransmitBit(b int) int {
	level := -1.0
	if b == 1 {
		level = 1.0
	}
	// P(error) = Q(1/σ) with σ = 1/√(2·SNR), i.e. ½·erfc(√SNR) = Eq. 3.
	sample := level + c.Rng.NormFloat64()*c.sigma
	if sample >= 0 {
		return 1
	}
	return 0
}

// Transmit passes every bit of v through the channel in place — each
// received bit overwrites the sent one — and returns the number of flips.
// It draws one Gaussian sample per bit in index order and allocates
// nothing, so its shape matches serdes.ChannelFunc.
func (c *OOKChannel) Transmit(v bits.Vector) int {
	flips := 0
	for i := 0; i < v.Len(); i++ {
		sent := v.Bit(i)
		if b := c.TransmitBit(sent); b != sent {
			v.Flip(i)
			flips++
		}
	}
	return flips
}

// RawBERResult is a Monte-Carlo BER estimate with its confidence interval.
type RawBERResult struct {
	BER      float64
	LowCI    float64
	HighCI   float64
	Errors   int64
	Bits     int64
	Expected float64
}

// MonteCarloRawBER estimates the raw channel BER at the given SNR by
// brute-force sampling, with a 95% Wilson interval.
func MonteCarloRawBER(snr float64, nbits int64, rng *rand.Rand) (RawBERResult, error) {
	ch, err := NewOOKChannel(snr, rng)
	if err != nil {
		return RawBERResult{}, err
	}
	var errs int64
	for i := int64(0); i < nbits; i++ {
		b := int(i) & 1
		if ch.TransmitBit(b) != b {
			errs++
		}
	}
	lo, hi := mathx.WilsonInterval(errs, nbits, 1.96)
	return RawBERResult{
		BER:      float64(errs) / float64(nbits),
		LowCI:    lo,
		HighCI:   hi,
		Errors:   errs,
		Bits:     nbits,
		Expected: ch.TheoreticalRawBER(),
	}, nil
}

// ImportanceSampledRawBER estimates the raw BER at SNRs where direct
// sampling would need >1e9 bits, by widening the noise by `widen` (> 1) and
// reweighting each error event with the Gaussian likelihood ratio.
// For widen = 1 it degenerates to plain Monte-Carlo.
func ImportanceSampledRawBER(snr float64, samples int64, widen float64, rng *rand.Rand) (RawBERResult, error) {
	if snr <= 0 {
		return RawBERResult{}, fmt.Errorf("noise: SNR %g must be positive", snr)
	}
	if widen < 1 {
		return RawBERResult{}, fmt.Errorf("noise: widening factor %g must be >= 1", widen)
	}
	if rng == nil {
		return RawBERResult{}, fmt.Errorf("noise: nil RNG")
	}
	sigma := 1 / math.Sqrt(2*snr)
	wide := sigma * widen
	var sum, sumSq float64
	var hits int64
	for i := int64(0); i < samples; i++ {
		// Transmit '1' (+1); an error is a sample below threshold 0.
		x := rng.NormFloat64() * wide
		if 1+x >= 0 {
			continue
		}
		hits++
		// Likelihood ratio between the true and widened densities.
		w := (wide / sigma) * math.Exp(x*x/(2*wide*wide)-x*x/(2*sigma*sigma))
		sum += w
		sumSq += w * w
	}
	n := float64(samples)
	mean := sum / n
	variance := (sumSq/n - mean*mean) / n
	stderr := math.Sqrt(math.Max(variance, 0))
	return RawBERResult{
		BER:      mean,
		LowCI:    math.Max(0, mean-1.96*stderr),
		HighCI:   mean + 1.96*stderr,
		Errors:   hits,
		Bits:     samples,
		Expected: ecc.RawBERFromSNR(snr),
	}, nil
}
