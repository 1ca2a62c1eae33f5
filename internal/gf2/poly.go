package gf2

import (
	"fmt"
	"math/bits"
)

// BinPoly is a polynomial over GF(2) with coefficients packed into a uint64;
// bit i is the coefficient of x^i. It covers every generator polynomial used
// in the repository (degree ≤ 63).
type BinPoly uint64

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p BinPoly) Degree() int { return 63 - bits.LeadingZeros64(uint64(p)) }

// Coeff returns the coefficient (0/1) of x^i.
func (p BinPoly) Coeff(i int) int {
	if i < 0 || i > 63 {
		return 0
	}
	return int(p>>uint(i)) & 1
}

// String renders the polynomial in conventional x^k + ... form.
func (p BinPoly) String() string {
	if p == 0 {
		return "0"
	}
	s := ""
	for i := p.Degree(); i >= 0; i-- {
		if p.Coeff(i) == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch i {
		case 0:
			s += "1"
		case 1:
			s += "x"
		default:
			s += fmt.Sprintf("x^%d", i)
		}
	}
	return s
}

// MulBin returns the carry-less product a·b. It returns an error if the
// product would overflow 64 coefficient bits.
func MulBin(a, b BinPoly) (BinPoly, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	if a.Degree()+b.Degree() > 63 {
		return 0, fmt.Errorf("gf2: binary polynomial product degree %d exceeds 63", a.Degree()+b.Degree())
	}
	var out BinPoly
	for i := 0; i <= b.Degree(); i++ {
		if b.Coeff(i) == 1 {
			out ^= a << uint(i)
		}
	}
	return out, nil
}

// FieldPoly is a polynomial with coefficients in a Field; index i holds the
// coefficient of x^i. Trailing zero coefficients are permitted.
type FieldPoly []uint16

// PolyDegree returns the degree of p, or -1 for the zero polynomial.
func PolyDegree(p FieldPoly) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// PolyEval evaluates p at x by Horner's rule.
func (f *Field) PolyEval(p FieldPoly, x uint16) uint16 {
	var acc uint16
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

// PolyMul returns the product of two field polynomials.
func (f *Field) PolyMul(a, b FieldPoly) FieldPoly {
	da, db := PolyDegree(a), PolyDegree(b)
	if da < 0 || db < 0 {
		return FieldPoly{0}
	}
	out := make(FieldPoly, da+db+1)
	for i := 0; i <= da; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j <= db; j++ {
			out[i+j] ^= f.Mul(a[i], b[j])
		}
	}
	return out
}

// MinimalPoly returns the minimal polynomial over GF(2) of the field element
// beta: the product of (x + c) over the conjugacy class {beta, beta², ...}.
// The result always has binary coefficients.
func (f *Field) MinimalPoly(beta uint16) (BinPoly, error) {
	if beta == 0 {
		return BinPoly(0b10), nil // minimal polynomial of 0 is x
	}
	// Gather the conjugacy class.
	var class []uint16
	c := beta
	for {
		class = append(class, c)
		c = f.Mul(c, c)
		if c == beta {
			break
		}
		if len(class) > f.M {
			return 0, fmt.Errorf("gf2: conjugacy class of %#x did not close", beta)
		}
	}
	// Multiply out Π(x + cᵢ) in field arithmetic.
	poly := FieldPoly{1}
	for _, cj := range class {
		poly = f.PolyMul(poly, FieldPoly{cj, 1})
	}
	// Coefficients must collapse to GF(2).
	var out BinPoly
	for i, coef := range poly {
		switch coef {
		case 0:
		case 1:
			out |= 1 << uint(i)
		default:
			return 0, fmt.Errorf("gf2: minimal polynomial coefficient %#x not binary", coef)
		}
	}
	return out, nil
}

// BerlekampMassey computes the error-locator polynomial Λ(x) from the
// syndrome sequence synd (synd[i] = S_{i+1}) over the field. The returned
// polynomial satisfies Λ(0) = 1 and its degree equals the number of errors
// when that number is within the code's correction capability.
//
// Neither the locator nor its copy from the last length change ever exceeds
// degree len(synd), so both live in caller-owned buffers of len(synd)+1
// coefficients: lambda and prev must each hold that many (their contents are
// overwritten), and the result is lambda trimmed to its degree. Nothing is
// allocated.
func (f *Field) BerlekampMassey(lambda, prev FieldPoly, synd []uint16) FieldPoly {
	size := len(synd) + 1
	c, b := lambda[:size], prev[:size] // current locator; copy at the last length change
	clear(c)
	clear(b)
	c[0], b[0] = 1, 1
	L := 0          // current LFSR length
	m := 1          // steps since last length change
	bd := uint16(1) // discrepancy at last length change
	for n := 0; n < len(synd); n++ {
		// Discrepancy of the next syndrome against the current LFSR.
		d := synd[n]
		for i := 1; i <= L; i++ {
			if c[i] != 0 && synd[n-i] != 0 {
				d ^= f.Mul(c[i], synd[n-i])
			}
		}
		if d == 0 {
			m++
			continue
		}
		coef, err := f.Div(d, bd)
		if err != nil {
			// bd is never zero by construction; defensive fallback.
			m++
			continue
		}
		// c ← c − coef·x^m·b, and on a length change b ← the old c. Walking
		// down from the top reads b[i−m] before index i−m is overwritten;
		// coef·x^m·b never exceeds degree n+1, so nothing falls off the top.
		grow := 2*L <= n
		for i := size - 1; i >= 0; i-- {
			old := c[i]
			if i >= m && b[i-m] != 0 {
				c[i] ^= f.Mul(coef, b[i-m])
			}
			if grow {
				b[i] = old
			}
		}
		if grow {
			L = n + 1 - L
			bd = d
			m = 1
		} else {
			m++
		}
	}
	return c[:PolyDegree(c)+1]
}

// ChienSearch finds the error positions encoded by the locator polynomial
// lambda for a code of block length n: position i is in error when
// Λ(α^{-i}) = 0. A degree-d locator has at most d roots, so the search
// writes them in increasing order into dst, which must hold d entries, and
// stops at the d-th; positions is dst[:count] and nothing is allocated. If
// the number of roots does not match the locator degree the pattern is
// uncorrectable and ok is false.
func (f *Field) ChienSearch(dst []int, lambda FieldPoly, n int) (positions []int, ok bool) {
	deg := PolyDegree(lambda)
	if deg <= 0 {
		return dst[:0], deg == 0 // zero errors is fine; zero polynomial is not
	}
	count := 0
	for i := 0; i < n && count < deg; i++ {
		if f.PolyEval(lambda, f.Alpha(-i)) == 0 {
			dst[count] = i
			count++
		}
	}
	return dst[:count], count == deg
}
