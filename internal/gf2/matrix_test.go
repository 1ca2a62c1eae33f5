package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, rng.Intn(2))
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 70) // multi-word rows
	m.Set(0, 0, 1)
	m.Set(2, 69, 1)
	if m.At(0, 0) != 1 || m.At(2, 69) != 1 || m.At(1, 35) != 0 {
		t.Error("Set/At mismatch")
	}
	m.Set(0, 0, 0)
	if m.At(0, 0) != 0 {
		t.Error("clearing a bit failed")
	}
	if m.Rows() != 3 || m.Cols() != 70 {
		t.Error("dimensions wrong")
	}
}

func TestIdentityMulIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 6, 9)
	left, err := Identity(6).Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	right, err := a.Mul(Identity(9))
	if err != nil {
		t.Fatal(err)
	}
	if !left.Equal(a) || !right.Equal(a) {
		t.Error("identity multiplication changed the matrix")
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, rng.Intn(10)+1, rng.Intn(80)+1)
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMulTransposeProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		ba, err := b.Transpose().Mul(a.Transpose())
		if err != nil {
			return false
		}
		return ab.Transpose().Equal(ba)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAugment(t *testing.T) {
	a := Identity(2)
	b := NewMatrix(2, 3)
	b.Set(0, 2, 1)
	aug, err := a.Augment(b)
	if err != nil {
		t.Fatal(err)
	}
	if aug.Cols() != 5 || aug.At(0, 0) != 1 || aug.At(0, 4) != 1 || aug.At(1, 1) != 1 {
		t.Errorf("augment wrong:\n%s", aug)
	}
	if _, err := a.Augment(NewMatrix(3, 1)); err == nil {
		t.Error("row mismatch should error")
	}
}

func TestMulDimensionError(t *testing.T) {
	if _, err := NewMatrix(2, 3).Mul(NewMatrix(4, 2)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestStringAndIsZero(t *testing.T) {
	m := NewMatrix(2, 3)
	if !m.IsZero() {
		t.Error("fresh matrix should be zero")
	}
	m.Set(1, 2, 1)
	if m.IsZero() {
		t.Error("nonzero matrix reported zero")
	}
	if got := m.String(); got != "000\n001" {
		t.Errorf("String = %q", got)
	}
}
