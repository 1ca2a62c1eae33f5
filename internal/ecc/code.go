// Package ecc implements the error-correction codes evaluated by the paper —
// uncoded transmission, Hamming(7,4) and the shortened Hamming(71,64) — plus
// the natural extensions the paper mentions ("other coding techniques can be
// used"): extended Hamming (SECDED), repetition, single-parity and
// double-error-correcting BCH codes. Every code implements the six-method
// Code contract, whose codec is the in-place pair EncodeInto/DecodeInto on
// caller-owned buffers.
//
// It also provides the analytic BER machinery of Section IV-D: the SNR↔BER
// relations (Eq. 1 and 3), the Hamming post-decoding BER (Eq. 2), a general
// union-bound model for t-error-correcting codes, and their numeric
// inversions used by the link configurator. FERPlan picks the model per
// code: the generic t-indexed ones, or the exact expression (BER and slope
// together) a code such as Repetition supplies.
package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// Code is a binary block code. Implementations are systematic: the K data
// bits appear verbatim inside the N-bit codeword (the exact layout is an
// implementation detail; EncodeInto and DecodeInto are always mutually
// consistent).
//
// The single-letter method names follow coding-theory convention:
// an (n, k) code correcting t errors per block.
type Code interface {
	// Name is a short display name such as "H(7,4)".
	Name() string
	// N returns the codeword length in bits.
	N() int
	// K returns the number of data bits per codeword.
	K() int
	// T returns the number of bit errors per block the decoder is
	// guaranteed to correct.
	T() int
	// EncodeInto writes the N-bit codeword for the K bits of data into
	// dst, overwriting all of it.
	EncodeInto(dst, data bits.Vector) error
	// DecodeInto recovers the K data bits of a (possibly corrupted) N-bit
	// word into dst, correcting up to T errors. Both methods allocate
	// nothing: the Monte-Carlo runners and the serdes pipeline run on
	// caller-owned buffers.
	DecodeInto(dst, word bits.Vector) (DecodeInfo, error)
}

// DecodeInfo reports what the decoder did to a received word.
type DecodeInfo struct {
	// Corrected is the number of bit flips the decoder applied.
	Corrected int
	// Detected is true when the decoder saw an error pattern it could
	// not correct (the returned data should be treated as suspect).
	Detected bool
}

// Rate returns the code rate k/n.
func Rate(c Code) float64 { return float64(c.K()) / float64(c.N()) }

// CT returns the paper's Communication Time metric: the transmission-time
// expansion n/k relative to uncoded transfer of the same payload
// (CT = 1.75 for H(7,4), 1.109 for H(71,64), 1 for uncoded).
func CT(c Code) float64 { return float64(c.N()) / float64(c.K()) }

// Describe returns a one-line human-readable summary of the code.
func Describe(c Code) string {
	return fmt.Sprintf("%s: (n=%d, k=%d, t=%d) rate=%.3f CT=%.3f",
		c.Name(), c.N(), c.K(), c.T(), Rate(c), CT(c))
}

// checkEncode validates EncodeInto's sizes: K data bits into an N-bit dst.
func checkEncode(c Code, dst, data bits.Vector) error {
	if data.Len() != c.K() || dst.Len() != c.N() {
		return fmt.Errorf("ecc: %s: EncodeInto needs %d data bits and a %d-bit destination, got %d and %d",
			c.Name(), c.K(), c.N(), data.Len(), dst.Len())
	}
	return nil
}

// checkDecode validates DecodeInto's sizes: an N-bit word into a K-bit dst.
func checkDecode(c Code, dst, word bits.Vector) error {
	if word.Len() != c.N() || dst.Len() != c.K() {
		return fmt.Errorf("ecc: %s: DecodeInto needs a %d-bit word and a %d-bit destination, got %d and %d",
			c.Name(), c.N(), c.K(), word.Len(), dst.Len())
	}
	return nil
}
