package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// ExtendedHamming is a Hamming code extended with one overall parity bit,
// giving minimum distance 4: it corrects single errors and *detects* double
// errors (SECDED), the organization used for ECC memory interfaces.
type ExtendedHamming struct {
	inner *LinearCode
	name  string
}

// NewExtendedHamming wraps the (possibly shortened) m-bit Hamming code
// shortened by s into its SECDED extension.
func NewExtendedHamming(m, s int) (*ExtendedHamming, error) {
	inner, err := NewShortenedHamming(m, s)
	if err != nil {
		return nil, err
	}
	return &ExtendedHamming{
		inner: inner,
		name:  fmt.Sprintf("SECDED(%d,%d)", inner.N()+1, inner.K()),
	}, nil
}

// MustSECDED7264 returns the classic SECDED(72,64) organization
// (H(71,64) plus an overall parity bit).
func MustSECDED7264() *ExtendedHamming {
	c, err := NewExtendedHamming(7, 56)
	if err != nil {
		panic(err) // fixed parameters: cannot fail
	}
	return c
}

// Name implements Code.
func (c *ExtendedHamming) Name() string { return c.name }

// N implements Code.
func (c *ExtendedHamming) N() int { return c.inner.N() + 1 }

// K implements Code.
func (c *ExtendedHamming) K() int { return c.inner.K() }

// T implements Code.
func (c *ExtendedHamming) T() int { return 1 }

// EncodeInto implements Code without allocating: the inner systematic
// layout is written directly into dst and the overall parity accumulated
// alongside the inner parity bits.
func (c *ExtendedHamming) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	data.CopyInto(dst, 0)
	overall := data.PopCount()
	for j, mask := range c.inner.parityMasks {
		b := data.AndMaskParity(mask)
		dst.Set(c.inner.k+j, b)
		overall += b
	}
	dst.Set(c.N()-1, overall&1)
	return nil
}

// DecodeInto implements Code with the standard SECDED case analysis,
// without allocating:
//
//	syndrome == 0, parity ok   → clean word
//	syndrome == 0, parity bad  → the overall parity bit itself flipped
//	syndrome != 0, parity bad  → single error, corrected by lookup
//	syndrome != 0, parity ok   → double error, detected-uncorrectable
//
// The inner syndrome is evaluated directly on the extended word (the parity
// masks read only the data prefix, and the inner parity bits sit at their
// inner positions).
func (c *ExtendedHamming) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, word); err != nil {
		return DecodeInfo{}, err
	}
	syn := c.inner.syndromeOf(word)
	parityBad := word.PopCount()&1 == 1
	word.SliceInto(dst, 0)

	switch {
	case syn == 0 && !parityBad:
		return DecodeInfo{}, nil
	case syn == 0 && parityBad:
		// Only the appended parity bit is wrong; the data is intact.
		return DecodeInfo{Corrected: 1}, nil
	case parityBad:
		pos, known := c.inner.synLookup(syn)
		if !known {
			return DecodeInfo{Detected: true}, nil
		}
		if pos < c.K() {
			dst.Flip(pos)
		}
		return DecodeInfo{Corrected: 1}, nil
	default:
		// Nonzero syndrome with good overall parity: an even number of
		// errors. Uncorrectable by design.
		return DecodeInfo{Detected: true}, nil
	}
}
