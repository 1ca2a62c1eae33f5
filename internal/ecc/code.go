// Package ecc implements the error-correction codes evaluated by the paper —
// uncoded transmission, Hamming(7,4) and the shortened Hamming(71,64) — plus
// the natural extensions the paper mentions ("other coding techniques can be
// used"): extended Hamming (SECDED), repetition, single-parity and
// double-error-correcting BCH codes.
//
// It also provides the analytic BER machinery of Section IV-D: the SNR↔BER
// relations (Eq. 1 and 3), the Hamming post-decoding BER (Eq. 2), a general
// union-bound model for t-error-correcting codes, and their numeric
// inversions used by the link configurator.
package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// Code is a binary block code. Implementations are systematic: the K data
// bits appear verbatim inside the N-bit codeword (the exact layout is an
// implementation detail; Encode and Decode are always mutually consistent).
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
	// Encode maps K data bits to a new N-bit codeword.
	Encode(data bits.Vector) (bits.Vector, error)
	// Decode maps a (possibly corrupted) N-bit word back to K new data
	// bits, correcting up to T errors.
	Decode(word bits.Vector) (bits.Vector, DecodeInfo, error)
	// EncodeInto writes the N-bit codeword for data into dst, and
	// DecodeInto recovers the K data bits of word into dst. They have
	// Encode's and Decode's semantics and validation errors but allocate
	// no result: the Monte-Carlo runners and the serdes pipeline run
	// exclusively through them.
	EncodeInto(dst, data bits.Vector) error
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

// BERModeler is implemented by codes that know an exact (or better)
// post-decoding BER expression than the generic models in this package.
// PostDecodeBER consults it before falling back on Eq. 2 / union bound.
type BERModeler interface {
	PostDecodeBER(p float64) float64
}

// Rate returns the code rate k/n.
func Rate(c Code) float64 { return float64(c.K()) / float64(c.N()) }

// CT returns the paper's Communication Time metric: the transmission-time
// expansion n/k relative to uncoded transfer of the same payload
// (CT = 1.75 for H(7,4), 1.109 for H(71,64), 1 for uncoded).
func CT(c Code) float64 { return float64(c.N()) / float64(c.K()) }

// Overhead returns the fraction of transmitted bits that are redundancy.
func Overhead(c Code) float64 { return 1 - Rate(c) }

// Describe returns a one-line human-readable summary of the code.
func Describe(c Code) string {
	return fmt.Sprintf("%s: (n=%d, k=%d, t=%d) rate=%.3f CT=%.3f",
		c.Name(), c.N(), c.K(), c.T(), Rate(c), CT(c))
}

// checkDataLen validates an Encode input size.
func checkDataLen(c Code, data bits.Vector) error {
	if data.Len() != c.K() {
		return fmt.Errorf("ecc: %s: Encode needs %d data bits, got %d", c.Name(), c.K(), data.Len())
	}
	return nil
}

// checkEncodeDst validates an EncodeInto destination size (N bits).
func checkEncodeDst(c Code, dst bits.Vector) error {
	if dst.Len() != c.N() {
		return fmt.Errorf("ecc: %s: EncodeInto needs a %d-bit destination, got %d", c.Name(), c.N(), dst.Len())
	}
	return nil
}

// checkDecodeDst validates a DecodeInto destination size (K bits).
func checkDecodeDst(c Code, dst bits.Vector) error {
	if dst.Len() != c.K() {
		return fmt.Errorf("ecc: %s: DecodeInto needs a %d-bit destination, got %d", c.Name(), c.K(), dst.Len())
	}
	return nil
}

// checkWordLen validates a Decode input size.
func checkWordLen(c Code, word bits.Vector) error {
	if word.Len() != c.N() {
		return fmt.Errorf("ecc: %s: Decode needs %d-bit words, got %d", c.Name(), c.N(), word.Len())
	}
	return nil
}
