package ecc

import (
	"fmt"

	"photonoc/internal/bits"
)

// Uncoded is the identity "code": data is transmitted as-is. It models the
// paper's w/o-ECC communication scheme (CT = 1, no coding gain).
type Uncoded struct {
	k int
}

// NewUncoded returns the k-bit pass-through scheme.
func NewUncoded(k int) (*Uncoded, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ecc: NewUncoded(%d): need k > 0", k)
	}
	return &Uncoded{k: k}, nil
}

// MustUncoded64 returns the 64-bit uncoded scheme matching the paper's
// interface width.
func MustUncoded64() *Uncoded {
	c, err := NewUncoded(64)
	if err != nil {
		panic(err) // fixed parameters: cannot fail
	}
	return c
}

// Name implements Code.
func (c *Uncoded) Name() string { return "w/o ECC" }

// N implements Code.
func (c *Uncoded) N() int { return c.k }

// K implements Code.
func (c *Uncoded) K() int { return c.k }

// T implements Code.
func (c *Uncoded) T() int { return 0 }

// Encode implements Code (identity).
func (c *Uncoded) Encode(data bits.Vector) (bits.Vector, error) {
	if err := checkDataLen(c, data); err != nil {
		return bits.Vector{}, err
	}
	return data.Clone(), nil
}

// EncodeInto implements Code (identity copy).
func (c *Uncoded) EncodeInto(dst, data bits.Vector) error {
	if err := checkDataLen(c, data); err != nil {
		return err
	}
	if err := checkEncodeDst(c, dst); err != nil {
		return err
	}
	data.CopyInto(dst, 0)
	return nil
}

// Decode implements Code (identity; nothing can be detected).
func (c *Uncoded) Decode(word bits.Vector) (bits.Vector, DecodeInfo, error) {
	if err := checkWordLen(c, word); err != nil {
		return bits.Vector{}, DecodeInfo{}, err
	}
	return word.Clone(), DecodeInfo{}, nil
}

// DecodeInto implements Code (identity copy).
func (c *Uncoded) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkWordLen(c, word); err != nil {
		return DecodeInfo{}, err
	}
	if err := checkDecodeDst(c, dst); err != nil {
		return DecodeInfo{}, err
	}
	word.CopyInto(dst, 0)
	return DecodeInfo{}, nil
}

// PostDecodeBER implements BERModeler: without coding the channel error
// probability passes straight through.
func (c *Uncoded) PostDecodeBER(p float64) float64 { return p }

// postDecodeBERAndDeriv implements berDerivModeler: dBER/dp = 1.
func (c *Uncoded) postDecodeBERAndDeriv(p float64) (float64, float64) { return p, 1 }
