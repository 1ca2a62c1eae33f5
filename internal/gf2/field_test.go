package gf2

import (
	"math/rand"
	"testing"
)

func TestNewFieldSupportedRange(t *testing.T) {
	for m := 2; m <= 16; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.Size() != 1<<m || f.N() != 1<<m-1 {
			t.Errorf("m=%d: Size=%d N=%d", m, f.Size(), f.N())
		}
	}
	if _, err := NewField(1); err == nil {
		t.Error("m=1 should be rejected")
	}
	if _, err := NewField(17); err == nil {
		t.Error("m=17 should be rejected")
	}
}

func TestFieldAxioms(t *testing.T) {
	// Exhaustive checks on GF(16), randomized checks on GF(256).
	f16, _ := NewField(4)
	for a := uint16(0); a < 16; a++ {
		for b := uint16(0); b < 16; b++ {
			if f16.Mul(a, b) != f16.Mul(b, a) {
				t.Fatalf("commutativity fails at %d,%d", a, b)
			}
			for c := uint16(0); c < 16; c++ {
				if f16.Mul(a, f16.Mul(b, c)) != f16.Mul(f16.Mul(a, b), c) {
					t.Fatalf("associativity fails at %d,%d,%d", a, b, c)
				}
				left := f16.Mul(a, f16.Add(b, c))
				right := f16.Add(f16.Mul(a, b), f16.Mul(a, c))
				if left != right {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
	f256, _ := NewField(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := uint16(rng.Intn(256)), uint16(rng.Intn(256)), uint16(rng.Intn(256))
		if f256.Mul(a, f256.Mul(b, c)) != f256.Mul(f256.Mul(a, b), c) {
			t.Fatalf("GF(256) associativity fails at %d,%d,%d", a, b, c)
		}
		if f256.Mul(a, f256.Add(b, c)) != f256.Add(f256.Mul(a, b), f256.Mul(a, c)) {
			t.Fatalf("GF(256) distributivity fails at %d,%d,%d", a, b, c)
		}
	}
}

func TestFieldInverse(t *testing.T) {
	f, _ := NewField(7)
	for a := uint16(1); a < 128; a++ {
		inv, err := f.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if f.Mul(a, inv) != 1 {
			t.Fatalf("a·a⁻¹ ≠ 1 for a=%d", a)
		}
	}
	if _, err := f.Inv(0); err == nil {
		t.Error("Inv(0) should error")
	}
	if _, err := f.Div(1, 0); err == nil {
		t.Error("Div by zero should error")
	}
}

func TestAlphaIsGenerator(t *testing.T) {
	f, _ := NewField(5)
	seen := make(map[uint16]bool)
	for i := 0; i < f.N(); i++ {
		seen[f.Alpha(i)] = true
	}
	if len(seen) != f.N() {
		t.Errorf("α generated %d distinct elements, want %d", len(seen), f.N())
	}
	if f.Alpha(f.N()) != 1 {
		t.Error("α^(2^m-1) should be 1")
	}
	if f.Alpha(-1) != f.Alpha(f.N()-1) {
		t.Error("negative exponents should wrap")
	}
}
