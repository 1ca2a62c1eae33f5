package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

func TestBCH157Construction(t *testing.T) {
	code := MustBCH157()
	if code.N() != 15 || code.K() != 7 || code.T() != 2 {
		t.Fatalf("BCH(15,7) dims wrong: %s", Describe(code))
	}
	// The textbook generator for BCH(15,7,t=2) over x^4+x+1 is
	// g(x) = x^8 + x^7 + x^6 + x^4 + 1.
	if got := code.Generator(); got != gf2.BinPoly(0b111010001) {
		t.Errorf("generator = %s", got)
	}
}

func TestBCH3121Construction(t *testing.T) {
	code := MustBCH3121()
	if code.N() != 31 || code.K() != 21 || code.T() != 2 {
		t.Fatalf("BCH(31,21) dims wrong: %s", Describe(code))
	}
	if code.Generator().Degree() != 10 {
		t.Errorf("generator degree = %d, want 10", code.Generator().Degree())
	}
}

func TestNewBCHValidation(t *testing.T) {
	if _, err := NewBCH(4, 0); err == nil {
		t.Error("t=0 should fail")
	}
	if _, err := NewBCH(4, 8); err == nil {
		t.Error("2t >= n should fail")
	}
	if _, err := NewBCH(1, 1); err == nil {
		t.Error("m=1 should fail (no field)")
	}
	// The extreme designed distance still leaves k=1 (all four conjugacy
	// classes below α^15 total degree 14) and must construct fine.
	c, err := NewBCH(4, 5)
	if err != nil {
		t.Fatalf("NewBCH(4,5): %v", err)
	}
	if c.K() != 1 {
		t.Errorf("BCH(15,·,t=5) k = %d, want 1", c.K())
	}
}

func TestBCHCodewordsDivisibleByGenerator(t *testing.T) {
	// Property: every codeword, as a polynomial, is divisible by g(x).
	rng := rand.New(rand.NewSource(13))
	code := MustBCH157()
	for trial := 0; trial < 100; trial++ {
		word, err := encode(code, randomData(rng, code.K()))
		if err != nil {
			t.Fatal(err)
		}
		if rem := code.polyMod(word); rem != 0 {
			t.Fatalf("codeword remainder %b != 0", rem)
		}
	}
}

func TestBCHRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, code := range []*BCH{MustBCH157(), MustBCH3121()} {
		for trial := 0; trial < 100; trial++ {
			data := randomData(rng, code.K())
			word, err := encode(code, data)
			if err != nil {
				t.Fatal(err)
			}
			got, info, err := decode(code, word)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(data) || info.Corrected != 0 || info.Detected {
				t.Fatalf("%s: clean decode failed (info %+v)", code.Name(), info)
			}
		}
	}
}

func TestBCH157CorrectsAllSingleAndDoubleErrors(t *testing.T) {
	// Exhaustive: all 15 single and all 105 double error patterns.
	rng := rand.New(rand.NewSource(15))
	code := MustBCH157()
	data := randomData(rng, code.K())
	clean, err := encode(code, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < code.N(); i++ {
		w := clean.Clone()
		w.Flip(i)
		got, info, err := decode(code, w)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) || info.Corrected != 1 {
			t.Fatalf("single error at %d not corrected (info %+v)", i, info)
		}
		for j := i + 1; j < code.N(); j++ {
			w2 := clean.Clone()
			w2.Flip(i)
			w2.Flip(j)
			got, info, err := decode(code, w2)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(data) || info.Corrected != 2 {
				t.Fatalf("double error (%d,%d) not corrected (info %+v)", i, j, info)
			}
		}
	}
}

func TestBCH3121CorrectsRandomDoubleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	code := MustBCH3121()
	for trial := 0; trial < 500; trial++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		k := trial%2 + 1 // alternate single and double errors
		if _, err := bits.FlipExactly(word, rng, k); err != nil {
			t.Fatal(err)
		}
		got, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) || info.Corrected != k {
			t.Fatalf("%d errors not corrected (info %+v)", k, info)
		}
	}
}

func TestBCHTripleErrorsNeverSilentlyRestore(t *testing.T) {
	// With 3 > t errors the decoder must either flag detection or
	// miscorrect to a *different* codeword; silently returning the
	// original payload would mean d_min > 5, contradicting t=2.
	rng := rand.New(rand.NewSource(17))
	code := MustBCH157()
	detected := 0
	for trial := 0; trial < 500; trial++ {
		data := randomData(rng, code.K())
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bits.FlipExactly(word, rng, 3); err != nil {
			t.Fatal(err)
		}
		got, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if info.Detected {
			detected++
			continue
		}
		if got.Equal(data) {
			t.Fatal("triple error silently restored the original payload")
		}
	}
	if detected == 0 {
		t.Error("no triple-error pattern was ever flagged Detected")
	}
}

func TestBCHSizeErrors(t *testing.T) {
	code := MustBCH157()
	if _, err := encode(code, bits.New(8)); err == nil {
		t.Error("wrong data size should error")
	}
	if _, _, err := decode(code, bits.New(14)); err == nil {
		t.Error("wrong word size should error")
	}
}

func TestBCHBeyondStackWorkspace(t *testing.T) {
	// t = 10 exceeds the stack workspace of DecodeInto, so the syndromes,
	// locator buffers and positions come from the heap fallback instead;
	// every pattern of up to t errors must still be corrected.
	code, err := NewBCH(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if code.T() <= stackT {
		t.Fatalf("%s: t = %d does not exceed the stack workspace (%d)", code.Name(), code.T(), stackT)
	}
	rng := rand.New(rand.NewSource(18))
	word, got := bits.New(code.N()), bits.New(code.K())
	for trial := 0; trial < 200; trial++ {
		data := randomData(rng, code.K())
		if err := code.EncodeInto(word, data); err != nil {
			t.Fatal(err)
		}
		k := trial % (code.T() + 1)
		if _, err := bits.FlipExactly(word, rng, k); err != nil {
			t.Fatal(err)
		}
		info, err := code.DecodeInto(got, word)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(data) || info != (DecodeInfo{Corrected: k}) {
			t.Fatalf("%s: %d errors: info %+v, data ok %v", code.Name(), k, info, got.Equal(data))
		}
	}
}
