package ecc

import (
	"fmt"
	"math"

	"photonoc/internal/bits"
)

// Repetition repeats every data bit r times (r odd) and decodes by majority
// vote. It is the simplest — and least rate-efficient — baseline on the
// power/performance plane: t = (r−1)/2 per bit at rate 1/r.
type Repetition struct {
	k, r int
	name string
}

// NewRepetition builds a k-data-bit repetition code with odd factor r ≥ 3.
func NewRepetition(k, r int) (*Repetition, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ecc: NewRepetition: need k > 0, got %d", k)
	}
	if r < 3 || r%2 == 0 {
		return nil, fmt.Errorf("ecc: NewRepetition: factor must be odd and >= 3, got %d", r)
	}
	return &Repetition{k: k, r: r, name: fmt.Sprintf("Rep(%dx%d)", k, r)}, nil
}

// Name implements Code.
func (c *Repetition) Name() string { return c.name }

// N implements Code.
func (c *Repetition) N() int { return c.k * c.r }

// K implements Code.
func (c *Repetition) K() int { return c.k }

// T implements Code: majority vote fixes up to (r−1)/2 flips per data bit.
func (c *Repetition) T() int { return (c.r - 1) / 2 }

// EncodeInto implements Code without allocating: bit i occupies positions
// [i·r, (i+1)·r).
func (c *Repetition) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	for i := 0; i < c.k; i++ {
		b := data.Bit(i)
		for j := 0; j < c.r; j++ {
			dst.Set(i*c.r+j, b)
		}
	}
	return nil
}

// DecodeInto implements Code by per-bit majority vote, without allocating.
func (c *Repetition) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, word); err != nil {
		return DecodeInfo{}, err
	}
	info := DecodeInfo{}
	for i := 0; i < c.k; i++ {
		ones := 0
		for j := 0; j < c.r; j++ {
			ones += word.Bit(i*c.r + j)
		}
		bit := 0
		if 2*ones > c.r {
			bit = 1
		}
		dst.Set(i, bit)
		// Minority copies are the corrections the majority vote implied.
		if bit == 1 {
			info.Corrected += c.r - ones
		} else {
			info.Corrected += ones
		}
	}
	return info, nil
}

// postDecodeBER implements berModel with the exact majority-vote error
// probability, P(more than r/2 of r copies flip) at raw flip probability p,
// and its derivative from the binomial-tail identity
// d/dp P(X ≥ m) = r·C(r−1, m−1)·p^(m−1)·(1−p)^(r−m) with m = r/2 + 1.
func (c *Repetition) postDecodeBER(p float64) (ber, dBERdP float64) {
	m := c.r/2 + 1
	var sum float64
	for i := m; i <= c.r; i++ {
		sum += binomialTerm(c.r, i, p)
	}
	ber = math.Min(sum, 1)
	if p <= 0 || p >= 1 {
		return ber, 0
	}
	return ber, float64(c.r) * math.Exp(lchoose(c.r-1, m-1)+
		float64(m-1)*math.Log(p)+float64(c.r-m)*math.Log1p(-p))
}
