package gf2

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBinPolyBasics(t *testing.T) {
	p := BinPoly(0b1011) // x^3 + x + 1
	if p.Degree() != 3 {
		t.Errorf("Degree = %d", p.Degree())
	}
	if p.String() != "x^3 + x + 1" {
		t.Errorf("String = %q", p.String())
	}
	if BinPoly(0).Degree() != -1 {
		t.Error("zero polynomial degree should be -1")
	}
	if BinPoly(0).String() != "0" {
		t.Error("zero polynomial String")
	}
	if BinPoly(0b111).Coeff(1) != 1 || BinPoly(0b101).Coeff(1) != 0 {
		t.Error("Coeff wrong")
	}
}

func TestMulBinKnown(t *testing.T) {
	// (x+1)(x+1) = x² + 1 over GF(2).
	got, err := MulBin(0b11, 0b11)
	if err != nil || got != 0b101 {
		t.Errorf("(x+1)² = %b, %v", got, err)
	}
	// (x²+x+1)(x+1) = x³+1.
	got, err = MulBin(0b111, 0b11)
	if err != nil || got != 0b1001 {
		t.Errorf("(x²+x+1)(x+1) = %b, %v", got, err)
	}
	if _, err := MulBin(1<<40, 1<<40); err == nil {
		t.Error("overflowing product should error")
	}
	if got, err := MulBin(0, 0b111); err != nil || got != 0 {
		t.Error("zero product wrong")
	}
}

func TestPolyEvalAndMul(t *testing.T) {
	f, _ := NewField(4)
	// p(x) = x² + αx + 1 with α = 2 (the primitive element).
	p := FieldPoly{1, 2, 1}
	// p(0) = 1, p(1) = 1 + α + 1 = α.
	if f.PolyEval(p, 0) != 1 {
		t.Error("p(0) wrong")
	}
	if f.PolyEval(p, 1) != 2 {
		t.Errorf("p(1) = %d, want 2", f.PolyEval(p, 1))
	}
	// Product degree and evaluation homomorphism.
	q := FieldPoly{3, 1} // x + 3
	prod := f.PolyMul(p, q)
	if PolyDegree(prod) != 3 {
		t.Errorf("product degree = %d", PolyDegree(prod))
	}
	for x := uint16(0); x < 16; x++ {
		if f.PolyEval(prod, x) != f.Mul(f.PolyEval(p, x), f.PolyEval(q, x)) {
			t.Fatalf("eval homomorphism fails at x=%d", x)
		}
	}
	if PolyDegree(FieldPoly{0, 0}) != -1 {
		t.Error("zero poly degree")
	}
}

func TestMinimalPolyGF16(t *testing.T) {
	// Classic table for GF(16) with p(x) = x^4 + x + 1:
	// m1(x) = x^4+x+1 (α), m3(x) = x^4+x^3+x^2+x+1 (α³), m5(x) = x^2+x+1 (α⁵).
	f, _ := NewField(4)
	cases := []struct {
		elem uint16
		want BinPoly
	}{
		{f.Alpha(1), 0b10011},
		{f.Alpha(2), 0b10011}, // conjugate of α
		{f.Alpha(3), 0b11111},
		{f.Alpha(5), 0b111},
		{1, 0b11}, // x + 1
		{0, 0b10}, // x
	}
	for _, c := range cases {
		got, err := f.MinimalPoly(c.elem)
		if err != nil {
			t.Fatalf("MinimalPoly(%d): %v", c.elem, err)
		}
		if got != c.want {
			t.Errorf("MinimalPoly(%d) = %s, want %s", c.elem, got, c.want)
		}
	}
}

func TestMinimalPolyAnnihilates(t *testing.T) {
	// Property: the minimal polynomial of β evaluates to zero at β.
	f, _ := NewField(6)
	for i := 0; i < f.N(); i++ {
		beta := f.Alpha(i)
		mp, err := f.MinimalPoly(beta)
		if err != nil {
			t.Fatalf("MinimalPoly(α^%d): %v", i, err)
		}
		// Evaluate the binary polynomial at beta in the field.
		var acc uint16
		for d := mp.Degree(); d >= 0; d-- {
			acc = f.Add(f.Mul(acc, beta), uint16(mp.Coeff(d)))
		}
		if acc != 0 {
			t.Errorf("m(β) != 0 for β=α^%d", i)
		}
	}
}

func TestBerlekampMasseyChienRoundTrip(t *testing.T) {
	// Synthesize syndromes from known error positions and verify BM + Chien
	// recover exactly those positions, for 0..3 errors in GF(2^6) (n=63).
	f, _ := NewField(6)
	n := f.N()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		nerr := trial % 4
		t2 := 2 * 3 // syndromes for a t=3 code
		pos := rng.Perm(n)[:nerr]
		// S_j = Σ_k α^(j·pos_k) for a binary code.
		synd := make([]uint16, t2)
		for j := 1; j <= t2; j++ {
			var s uint16
			for _, p := range pos {
				s ^= f.Alpha(j * p)
			}
			synd[j-1] = s
		}
		lambda := f.BerlekampMassey(make(FieldPoly, t2+1), make(FieldPoly, t2+1), synd)
		got, ok := f.ChienSearch(make([]int, 3), lambda, n)
		if !ok {
			t.Fatalf("trial %d: Chien failed for %d errors at %v", trial, nerr, pos)
		}
		want := append([]int(nil), pos...)
		sortInts(want)
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func TestChienSearchDegenerate(t *testing.T) {
	f, _ := NewField(4)
	// Constant locator: no errors.
	if pos, ok := f.ChienSearch(nil, FieldPoly{1}, 15); !ok || pos != nil {
		t.Error("constant locator should mean zero errors")
	}
	// Zero polynomial: invalid.
	if _, ok := f.ChienSearch(nil, FieldPoly{0}, 15); ok {
		t.Error("zero locator should be rejected")
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestBerlekampMasseyChienZeroAlloc(t *testing.T) {
	// Both stages run in caller-owned buffers: 2t+1 locator coefficients
	// twice, and t positions for a degree-t locator.
	f, _ := NewField(5)
	synd := make([]uint16, 4) // t = 2
	for j := 1; j <= len(synd); j++ {
		synd[j-1] = f.Alpha(j*3) ^ f.Alpha(j*17)
	}
	lambda, prev, pos := make(FieldPoly, 5), make(FieldPoly, 5), make([]int, 2)
	var got []int
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = f.ChienSearch(pos, f.BerlekampMassey(lambda, prev, synd), f.N())
	})
	if allocs != 0 {
		t.Errorf("BerlekampMassey+ChienSearch: %.1f allocations, want 0", allocs)
	}
	if !reflect.DeepEqual(got, []int{3, 17}) {
		t.Errorf("positions %v, want [3 17]", got)
	}
}
