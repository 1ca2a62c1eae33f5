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

// EncodeInto implements Code (identity copy).
func (c *Uncoded) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	data.CopyInto(dst, 0)
	return nil
}

// DecodeInto implements Code (identity copy; nothing can be detected).
func (c *Uncoded) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, word); err != nil {
		return DecodeInfo{}, err
	}
	word.CopyInto(dst, 0)
	return DecodeInfo{}, nil
}
