package ecc

import (
	"fmt"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

// BCH is a primitive binary BCH code of length n = 2^m − 1 with designed
// correction capability t, decoded algebraically (syndromes →
// Berlekamp-Massey → Chien search). The codeword layout is
// [parity (n−k bits) | data (k bits)], i.e. c(x) = x^{n−k}·d(x) + rem(x).
type BCH struct {
	name  string
	field *gf2.Field
	n, k  int
	t     int
	gen   gf2.BinPoly
}

// NewBCH constructs the (2^m−1, k) BCH code correcting t errors, where k is
// determined by the degree of the generator polynomial (the LCM of the
// minimal polynomials of α, α², …, α^{2t}).
func NewBCH(m, t int) (*BCH, error) {
	if t < 1 {
		return nil, fmt.Errorf("ecc: NewBCH: t must be >= 1, got %d", t)
	}
	field, err := gf2.NewField(m)
	if err != nil {
		return nil, err
	}
	n := field.N()
	if 2*t >= n {
		return nil, fmt.Errorf("ecc: NewBCH: t=%d too large for n=%d", t, n)
	}
	// Generator = product of the distinct minimal polynomials of α^1..α^2t.
	gen := gf2.BinPoly(1)
	seen := make(map[gf2.BinPoly]bool)
	for i := 1; i <= 2*t; i++ {
		mp, err := field.MinimalPoly(field.Alpha(i))
		if err != nil {
			return nil, err
		}
		if seen[mp] {
			continue
		}
		seen[mp] = true
		gen, err = gf2.MulBin(gen, mp)
		if err != nil {
			return nil, fmt.Errorf("ecc: NewBCH(m=%d,t=%d): %w", m, t, err)
		}
	}
	k := n - gen.Degree()
	if k <= 0 {
		return nil, fmt.Errorf("ecc: NewBCH(m=%d,t=%d): no data bits left (k=%d)", m, t, k)
	}
	return &BCH{
		name:  fmt.Sprintf("BCH(%d,%d,t=%d)", n, k, t),
		field: field,
		n:     n,
		k:     k,
		t:     t,
		gen:   gen,
	}, nil
}

// MustBCH157 returns the double-error-correcting BCH(15,7) code.
func MustBCH157() *BCH {
	c, err := NewBCH(4, 2)
	if err != nil {
		panic(err) // fixed parameters: cannot fail
	}
	return c
}

// MustBCH3121 returns the double-error-correcting BCH(31,21) code.
func MustBCH3121() *BCH {
	c, err := NewBCH(5, 2)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Code.
func (c *BCH) Name() string { return c.name }

// N implements Code.
func (c *BCH) N() int { return c.n }

// K implements Code.
func (c *BCH) K() int { return c.k }

// T implements Code.
func (c *BCH) T() int { return c.t }

// Generator returns the generator polynomial.
func (c *BCH) Generator() gf2.BinPoly { return c.gen }

// EncodeInto implements Code: systematic polynomial encoding without
// allocating. Data bit j becomes the coefficient of x^{n−k+j}; the low n−k
// coefficients hold the remainder.
func (c *BCH) EncodeInto(dst, data bits.Vector) error {
	if err := checkEncode(c, dst, data); err != nil {
		return err
	}
	deg := c.n - c.k
	dst.Zero()
	data.CopyInto(dst, deg)
	rem := c.polyMod(dst)
	for i := 0; i < deg; i++ {
		dst.Set(i, int(rem>>uint(i))&1)
	}
	return nil
}

// polyMod returns v(x) mod gen(x) as packed bits (degree < n−k ≤ 63).
func (c *BCH) polyMod(v bits.Vector) uint64 {
	deg := c.gen.Degree()
	var rem uint64
	for i := v.Len() - 1; i >= 0; i-- {
		fb := rem >> uint(deg-1) & 1
		rem = rem<<1 | uint64(v.Bit(i))
		if fb == 1 {
			rem ^= uint64(c.gen)
		}
	}
	return rem & (1<<uint(deg) - 1)
}

// Syndromes returns S_1..S_2t, the received polynomial evaluated at
// α^1..α^{2t}.
func (c *BCH) Syndromes(word bits.Vector) []uint16 {
	synd := make([]uint16, 2*c.t)
	c.syndromesInto(synd, word)
	return synd
}

// syndromesInto accumulates each set bit's α^{j·pos} contribution into dst,
// visiting the word once instead of materializing the ones-position list.
func (c *BCH) syndromesInto(dst []uint16, word bits.Vector) {
	for j := range dst {
		dst[j] = 0
	}
	for pos := 0; pos < c.n; pos++ {
		if word.Bit(pos) == 0 {
			continue
		}
		for j := 1; j <= len(dst); j++ {
			dst[j-1] ^= c.field.Alpha(j * pos)
		}
	}
}

// stackT is the largest t whose DecodeInto workspace (2t syndromes, two
// locator buffers of 2t+1 coefficients, t error positions) lives on the
// stack; larger designs allocate it per call.
const stackT = 8

// DecodeInto implements Code using algebraic decoding, without allocating
// for t <= 8. Error patterns of weight greater than t are flagged Detected
// whenever the locator polynomial fails to factor over the field
// (miscorrection, as for any bounded-distance decoder, remains possible and
// is exercised by the Monte-Carlo tests). The received word is never
// cloned: the miscorrection guard re-evaluates the syndromes with the
// candidate flips folded in algebraically (S_j(word ⊕ e) = S_j(word) ⊕
// Σ α^{j·p}), and only data-region flips are applied to dst.
func (c *BCH) DecodeInto(dst, word bits.Vector) (DecodeInfo, error) {
	if err := checkDecode(c, dst, word); err != nil {
		return DecodeInfo{}, err
	}
	deg := c.n - c.k
	var (
		synBuf       [2 * stackT]uint16
		lamBuf, bBuf [2*stackT + 1]uint16
		posBuf       [stackT]int
	)
	synd, lam, prev, pos := synBuf[:], lamBuf[:], bBuf[:], posBuf[:]
	if c.t > stackT {
		synd, pos = make([]uint16, 2*c.t), make([]int, c.t)
		lam, prev = make([]uint16, 2*c.t+1), make([]uint16, 2*c.t+1)
	}
	synd = synd[:2*c.t]
	c.syndromesInto(synd, word)
	word.SliceInto(dst, deg)
	allZero := true
	for _, s := range synd {
		if s != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return DecodeInfo{}, nil
	}
	lambda := c.field.BerlekampMassey(lam, prev, synd)
	if gf2.PolyDegree(lambda) > c.t {
		return DecodeInfo{Detected: true}, nil
	}
	positions, ok := c.field.ChienSearch(pos, lambda, c.n)
	if !ok || len(positions) == 0 {
		return DecodeInfo{Detected: true}, nil
	}
	// Guard against miscorrection: the patched word must be a codeword.
	for j := 1; j <= len(synd); j++ {
		s := synd[j-1]
		for _, p := range positions {
			s ^= c.field.Alpha(j * p)
		}
		if s != 0 {
			return DecodeInfo{Detected: true}, nil
		}
	}
	for _, p := range positions {
		if p >= deg {
			dst.Flip(p - deg)
		}
	}
	return DecodeInfo{Corrected: len(positions)}, nil
}
