package ecc

import (
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

func TestNewLinearValidation(t *testing.T) {
	// Parity footprint collision: two data rows with the same pattern
	// cannot be single-error-correcting.
	p := gf2.NewMatrix(2, 3)
	p.Set(0, 0, 1)
	p.Set(0, 1, 1)
	p.Set(1, 0, 1)
	p.Set(1, 1, 1)
	if _, err := NewLinear("bad", p, 1); err == nil {
		t.Error("duplicate syndromes should be rejected")
	}

	// A data row equal to a unit vector collides with a parity position.
	p2 := gf2.NewMatrix(1, 3)
	p2.Set(0, 0, 1)
	if _, err := NewLinear("bad2", p2, 1); err == nil {
		t.Error("unit-vector data footprint should be rejected for t=1")
	}

	// Empty footprint means the data bit is unprotected.
	p3 := gf2.NewMatrix(2, 3)
	p3.Set(0, 0, 1)
	p3.Set(0, 1, 1)
	if _, err := NewLinear("bad3", p3, 1); err == nil {
		t.Error("empty parity footprint should be rejected for t=1")
	}

	// Out-of-range t.
	p4 := gf2.NewMatrix(2, 2)
	if _, err := NewLinear("bad4", p4, 2); err == nil {
		t.Error("t=2 should be rejected by NewLinear")
	}

	// Too many parity bits for the packed syndrome.
	p5 := gf2.NewMatrix(2, 64)
	if _, err := NewLinear("bad5", p5, 0); err == nil {
		t.Error("r > 63 should be rejected")
	}
}

func TestLinearCodeSizeErrors(t *testing.T) {
	code := MustHamming74()
	if _, err := encode(code, bits.New(5)); err == nil {
		t.Error("wrong data size should error")
	}
	if _, _, err := decode(code, bits.New(8)); err == nil {
		t.Error("wrong word size should error")
	}
	if _, err := code.Syndrome(bits.New(6)); err == nil {
		t.Error("wrong word size should error in Syndrome")
	}
}

func TestParityCodeDetectsOddErrors(t *testing.T) {
	code, err := NewParity(8)
	if err != nil {
		t.Fatal(err)
	}
	if code.N() != 9 || code.K() != 8 || code.T() != 0 {
		t.Fatalf("parity dims: %s", Describe(code))
	}
	data := bits.FromUint(0b10110010, 8)
	word, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	// Clean decode.
	got, info, err := decode(code, word)
	if err != nil || !got.Equal(data) || info.Detected {
		t.Fatalf("clean parity decode failed: %+v %v", info, err)
	}
	// Any single error is detected (not corrected).
	for pos := 0; pos < code.N(); pos++ {
		w := word.Clone()
		w.Flip(pos)
		_, info, err := decode(code, w)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Detected || info.Corrected != 0 {
			t.Errorf("single error at %d: info %+v, want Detected", pos, info)
		}
	}
	// Even-weight errors slip through undetected (inherent limitation).
	w := word.Clone()
	w.Flip(0)
	w.Flip(1)
	_, info, err = decode(code, w)
	if err != nil {
		t.Fatal(err)
	}
	if info.Detected {
		t.Error("double error unexpectedly detected by single parity")
	}

	if _, err := NewParity(0); err == nil {
		t.Error("NewParity(0) should fail")
	}
}

func TestParityMaskMatchesGenerator(t *testing.T) {
	// The packed parity masks must agree with the P block of G.
	code := MustHamming7164()
	g := code.Generator()
	k := code.K()
	for j := 0; j < code.N()-k; j++ {
		mask := code.ParityMask(j)
		for i := 0; i < k; i++ {
			bit := int(mask[i>>6]>>(uint(i)&63)) & 1
			if bit != g.At(i, k+j) {
				t.Fatalf("mask[%d] bit %d = %d, G says %d", j, i, bit, g.At(i, k+j))
			}
		}
	}
}
