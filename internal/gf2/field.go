package gf2

import "fmt"

// primitivePolys[m] is a primitive polynomial of degree m over GF(2),
// bit i representing the coefficient of x^i (classic CCSDS/ETSI choices).
var primitivePolys = map[int]uint32{
	2:  0x7,    // x^2 + x + 1
	3:  0xB,    // x^3 + x + 1
	4:  0x13,   // x^4 + x + 1
	5:  0x25,   // x^5 + x^2 + 1
	6:  0x43,   // x^6 + x + 1
	7:  0x89,   // x^7 + x^3 + 1
	8:  0x11D,  // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,  // x^9 + x^4 + 1
	10: 0x409,  // x^10 + x^3 + 1
	11: 0x805,  // x^11 + x^2 + 1
	12: 0x1053, // x^12 + x^6 + x^4 + x + 1
	13: 0x201B, // x^13 + x^4 + x^3 + x + 1
	14: 0x4443, // x^14 + x^10 + x^6 + x + 1
	15: 0x8003, // x^15 + x + 1
	16: 0x1100B,
}

// Field is the finite field GF(2^m) represented with exponent/logarithm
// tables over a primitive element α. Elements are uint16 bit-vectors of
// polynomial coefficients; 0 is the additive identity.
type Field struct {
	M    int // extension degree
	poly uint32
	exp  []uint16 // exp[i] = α^i, doubled for overflow-free indexing
	log  []int    // log[a] = i such that α^i = a; log[0] unused
}

// NewField constructs GF(2^m) for 2 ≤ m ≤ 16 using a standard primitive
// polynomial.
func NewField(m int) (*Field, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("gf2: no primitive polynomial for m=%d (supported 2..16)", m)
	}
	size := 1 << m
	f := &Field{
		M:    m,
		poly: poly,
		exp:  make([]uint16, 2*(size-1)),
		log:  make([]int, size),
	}
	x := uint32(1)
	for i := 0; i < size-1; i++ {
		f.exp[i] = uint16(x)
		f.log[x] = i
		x <<= 1
		if x&uint32(size) != 0 {
			x ^= poly
		}
	}
	// α must be primitive: the orbit should have filled every nonzero value.
	if x != 1 {
		return nil, fmt.Errorf("gf2: polynomial %#x is not primitive for m=%d", poly, m)
	}
	copy(f.exp[size-1:], f.exp[:size-1])
	return f, nil
}

// Size returns 2^m, the number of field elements.
func (f *Field) Size() int { return 1 << f.M }

// N returns 2^m − 1, the order of the multiplicative group (and the natural
// BCH block length).
func (f *Field) N() int { return 1<<f.M - 1 }

// Add returns a + b (carry-less XOR); subtraction is identical.
func (f *Field) Add(a, b uint16) uint16 { return a ^ b }

// Mul returns the field product a·b.
func (f *Field) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a; a must be nonzero.
func (f *Field) Inv(a uint16) (uint16, error) {
	if a == 0 {
		return 0, fmt.Errorf("gf2: inverse of zero in GF(2^%d)", f.M)
	}
	return f.exp[f.N()-f.log[a]], nil
}

// Div returns a/b; b must be nonzero.
func (f *Field) Div(a, b uint16) (uint16, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return 0, err
	}
	return f.Mul(a, bi), nil
}

// Alpha returns α^i for any integer i (reduced modulo the group order).
func (f *Field) Alpha(i int) uint16 {
	n := f.N()
	i = (i%n + n) % n
	return f.exp[i]
}
