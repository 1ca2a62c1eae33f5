package ecc

import (
	"math"
	"testing"

	"photonoc/internal/bits"
)

// FuzzHamming7164Decode feeds arbitrary 71-bit words into the decoder: it
// must never panic and must always return either a clean pass-through, a
// correction, or a detection — and re-encoding a *successfully corrected*
// word must reproduce a valid codeword.
func FuzzHamming7164Decode(f *testing.F) {
	code := MustHamming7164()
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0xA5, 0x5A, 0x0F, 0xF0, 0x33, 0xCC, 0x55, 0xAA, 0x01})
	f.Fuzz(func(t *testing.T, raw []byte) {
		word, data, re := bits.New(code.N()), bits.New(code.K()), bits.New(code.N())
		for i := 0; i < code.N() && i/8 < len(raw); i++ {
			word.Set(i, int(raw[i/8]>>(uint(i)%8))&1)
		}
		info, err := code.DecodeInto(data, word)
		if err != nil {
			t.Fatalf("decode error on valid-size input: %v", err)
		}
		if info.Detected {
			return // uncorrectable: nothing more to check
		}
		// The corrected word must be a codeword: re-encode and compare
		// the parity section.
		if err := code.EncodeInto(re, data); err != nil {
			t.Fatal(err)
		}
		syn, err := code.Syndrome(re)
		if err != nil {
			t.Fatal(err)
		}
		if syn != 0 {
			t.Fatal("re-encoded word has nonzero syndrome")
		}
	})
}

// FuzzBCH157Decode exercises the algebraic decoder (syndromes, BM, Chien)
// with arbitrary words: no panics, and any claimed correction must land on
// a true codeword.
func FuzzBCH157Decode(f *testing.F) {
	code := MustBCH157()
	f.Add(uint16(0))
	f.Add(uint16(0x7FFF))
	f.Add(uint16(0x1234))
	f.Fuzz(func(t *testing.T, raw uint16) {
		word := bits.FromUint(uint64(raw)&0x7FFF, 15)
		data, re := bits.New(code.K()), bits.New(code.N())
		info, err := code.DecodeInto(data, word)
		if err != nil {
			t.Fatalf("decode error: %v", err)
		}
		if info.Detected {
			return
		}
		if err := code.EncodeInto(re, data); err != nil {
			t.Fatal(err)
		}
		for _, s := range code.Syndromes(re) {
			if s != 0 {
				t.Fatal("re-encoded BCH word not a codeword")
			}
		}
	})
}

// FuzzRequiredRawBER maps its input to a target post-decoding BER in
// [1e-15, 1e-2] (log-uniform) and requires every extended scheme's planned
// inversion to round-trip through PostDecodeBER to 1e-9 relative.
func FuzzRequiredRawBER(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(math.MaxUint64))
	f.Add(uint64(1) << 63)
	lo, hi := math.Log(1e-15), math.Log(1e-2)
	f.Fuzz(func(t *testing.T, u uint64) {
		target := math.Exp(lo + (hi-lo)*float64(u)/math.MaxUint64)
		for _, code := range ExtendedSchemes() {
			plan := PlanFor(code)
			p, err := plan.RequiredRawBER(target)
			if err != nil {
				t.Fatalf("%s: RequiredRawBER(%.17g): %v", code.Name(), target, err)
			}
			if back := plan.PostDecodeBER(p); relDiff(back, target) > 1e-9 {
				t.Fatalf("%s: BER round trip %.17g → %.17g", code.Name(), target, back)
			}
		}
	})
}
