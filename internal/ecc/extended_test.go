package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

func TestSECDEDParameters(t *testing.T) {
	code := MustSECDED7264()
	if code.N() != 72 || code.K() != 64 || code.T() != 1 {
		t.Fatalf("SECDED dims wrong: %s", Describe(code))
	}
	if code.Name() != "SECDED(72,64)" {
		t.Errorf("Name = %q", code.Name())
	}
}

func TestSECDEDMinimumDistanceFour(t *testing.T) {
	// Exhaustive on the small extension SECDED(8,4): every nonzero
	// codeword has weight >= 4.
	code, err := NewExtendedHamming(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code.N() != 8 || code.K() != 4 {
		t.Fatalf("extended H(8,4) dims: %s", Describe(code))
	}
	minW := 8
	for v := 1; v < 16; v++ {
		word, err := encode(code, bits.FromUint(uint64(v), 4))
		if err != nil {
			t.Fatal(err)
		}
		if w := word.PopCount(); w < minW {
			minW = w
		}
	}
	if minW != 4 {
		t.Errorf("extended Hamming minimum distance = %d, want 4", minW)
	}
}

func TestSECDEDCorrectsAllSingleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	code := MustSECDED7264()
	for pos := 0; pos < code.N(); pos++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		word.Flip(pos)
		got, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) || info.Corrected != 1 || info.Detected {
			t.Fatalf("single error at %d not corrected (info %+v)", pos, info)
		}
	}
}

func TestSECDEDDetectsAllDoubleErrors(t *testing.T) {
	// Exhaustive on SECDED(8,4): every pair of errors must be *detected*
	// (this is the whole point of the extension over plain Hamming).
	code, err := NewExtendedHamming(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	data := randomData(rng, code.K())
	clean, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < code.N(); i++ {
		for j := i + 1; j < code.N(); j++ {
			w := clean.Clone()
			w.Flip(i)
			w.Flip(j)
			_, info, err := decode(code, w)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Detected {
				t.Fatalf("double error (%d,%d) not detected", i, j)
			}
		}
	}
}

func TestSECDEDDetectsRandomDoubleErrors72(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	code := MustSECDED7264()
	for trial := 0; trial < 500; trial++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bits.FlipExactly(word, rng, 2); err != nil {
			t.Fatal(err)
		}
		_, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Detected {
			t.Fatal("double error not detected by SECDED(72,64)")
		}
	}
}

func TestSECDEDRoundTripAndSizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	code := MustSECDED7264()
	for trial := 0; trial < 100; trial++ {
		data := randomData(rng, 64)
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		got, info, err := decode(code, word)
		if err != nil || !got.Equal(data) || info.Corrected != 0 || info.Detected {
			t.Fatalf("clean roundtrip failed: %+v %v", info, err)
		}
	}
	if _, err := encode(code, bits.New(63)); err == nil {
		t.Error("wrong data size should error")
	}
	if _, _, err := decode(code, bits.New(71)); err == nil {
		t.Error("wrong word size should error")
	}
}
