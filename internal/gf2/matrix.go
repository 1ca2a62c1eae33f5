// Package gf2 implements the finite-field machinery behind the block codes:
// dense GF(2) matrices (generator/parity-check algebra), GF(2^m) extension
// fields with log/antilog tables, binary polynomials, and the
// Berlekamp-Massey / Chien-search decoding primitives used by the BCH codes.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Matrix is a dense binary matrix with rows packed into 64-bit words.
// Construct with NewMatrix or Identity; the zero value is an empty matrix.
type Matrix struct {
	rows, cols int
	w          int // words per row
	data       []uint64
}

// NewMatrix returns an all-zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gf2: NewMatrix(%d, %d)", rows, cols))
	}
	w := (cols + 63) / 64
	return &Matrix{rows: rows, cols: cols, w: w, data: make([]uint64, rows*w)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the bit at (r, c).
func (m *Matrix) At(r, c int) int {
	m.check(r, c)
	return int(m.data[r*m.w+c>>6]>>(uint(c)&63)) & 1
}

// Set stores bit b at (r, c).
func (m *Matrix) Set(r, c, b int) {
	m.check(r, c)
	idx := r*m.w + c>>6
	mask := uint64(1) << (uint(c) & 63)
	if b&1 == 1 {
		m.data[idx] |= mask
	} else {
		m.data[idx] &^= mask
	}
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("gf2: index (%d,%d) out of %dx%d matrix", r, c, m.rows, m.cols))
	}
}

// Row returns the packed words of row r. The slice aliases the matrix.
func (m *Matrix) Row(r int) []uint64 {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("gf2: row %d out of %d", r, m.rows))
	}
	return m.data[r*m.w : (r+1)*m.w]
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports dimension and content equality.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul computes the matrix product m·o over GF(2).
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("gf2: Mul dimension mismatch: %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	ot := o.Transpose()
	out := NewMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		mr := m.Row(r)
		for c := 0; c < o.cols; c++ {
			oc := ot.Row(c)
			parity := 0
			for i := range mr {
				parity ^= bits.OnesCount64(mr[i]&oc[i]) & 1
			}
			if parity == 1 {
				out.Set(r, c, 1)
			}
		}
	}
	return out, nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if m.At(r, c) == 1 {
				out.Set(c, r, 1)
			}
		}
	}
	return out
}

// Augment returns [m | o], the horizontal concatenation; row counts must match.
func (m *Matrix) Augment(o *Matrix) (*Matrix, error) {
	if m.rows != o.rows {
		return nil, fmt.Errorf("gf2: Augment row mismatch %d vs %d", m.rows, o.rows)
	}
	out := NewMatrix(m.rows, m.cols+o.cols)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if m.At(r, c) == 1 {
				out.Set(r, c, 1)
			}
		}
		for c := 0; c < o.cols; c++ {
			if o.At(r, c) == 1 {
				out.Set(r, m.cols+c, 1)
			}
		}
	}
	return out, nil
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	for _, w := range m.data {
		if w != 0 {
			return false
		}
	}
	return true
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var sb strings.Builder
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			sb.WriteByte('0' + byte(m.At(r, c)))
		}
		if r < m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
