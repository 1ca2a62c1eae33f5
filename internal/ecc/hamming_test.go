package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
)

func randomData(rng *rand.Rand, k int) bits.Vector {
	v := bits.New(k)
	for i := 0; i < k; i++ {
		v.Set(i, rng.Intn(2))
	}
	return v
}

func TestHammingParameters(t *testing.T) {
	cases := []struct {
		m, n, k int
	}{
		{2, 3, 1},
		{3, 7, 4},
		{4, 15, 11},
		{5, 31, 26},
		{6, 63, 57},
		{7, 127, 120},
	}
	for _, c := range cases {
		code, err := NewHamming(c.m)
		if err != nil {
			t.Fatalf("NewHamming(%d): %v", c.m, err)
		}
		if code.N() != c.n || code.K() != c.k || code.T() != 1 {
			t.Errorf("m=%d: (n,k,t) = (%d,%d,%d), want (%d,%d,1)", c.m, code.N(), code.K(), code.T(), c.n, c.k)
		}
	}
	if _, err := NewHamming(1); err == nil {
		t.Error("m=1 should fail")
	}
	if _, err := NewHamming(16); err == nil {
		t.Error("m=16 should fail")
	}
}

func TestPaperCodes(t *testing.T) {
	h74 := MustHamming74()
	if h74.N() != 7 || h74.K() != 4 || h74.Name() != "H(7,4)" {
		t.Errorf("H(7,4) wrong: %s", Describe(h74))
	}
	if ct := CT(h74); !approx(ct, 1.75, 1e-12) {
		t.Errorf("H(7,4) CT = %g, want 1.75 (the paper's +75%% parity)", ct)
	}
	h7164 := MustHamming7164()
	if h7164.N() != 71 || h7164.K() != 64 || h7164.Name() != "H(71,64)" {
		t.Errorf("H(71,64) wrong: %s", Describe(h7164))
	}
	if ct := CT(h7164); !approx(ct, 71.0/64.0, 1e-12) {
		t.Errorf("H(71,64) CT = %g, want %g", ct, 71.0/64.0)
	}
}

func TestGeneratorParityCheckOrthogonality(t *testing.T) {
	for _, m := range []int{3, 4, 5, 7} {
		code, err := NewHamming(m)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := code.Generator().Mul(code.ParityCheck().Transpose())
		if err != nil {
			t.Fatal(err)
		}
		if !prod.IsZero() {
			t.Errorf("m=%d: G·Hᵀ != 0", m)
		}
	}
}

func TestHammingRoundTripClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, code := range []Code{MustHamming74(), MustHamming7164()} {
		for trial := 0; trial < 200; trial++ {
			data := randomData(rng, code.K())
			word, err := encode(code, data)
			if err != nil {
				t.Fatal(err)
			}
			if word.Len() != code.N() {
				t.Fatalf("%s: codeword length %d", code.Name(), word.Len())
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

func TestHammingCorrectsEverySingleError(t *testing.T) {
	// Exhaustive over all error positions for both paper codes and a
	// mid-size code, with random payloads.
	rng := rand.New(rand.NewSource(2))
	codes := []Code{MustHamming74(), MustHamming7164()}
	if h15, err := NewHamming(4); err == nil {
		codes = append(codes, h15)
	}
	for _, code := range codes {
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
			if !got.Equal(data) {
				t.Fatalf("%s: error at %d not corrected", code.Name(), pos)
			}
			if info.Corrected != 1 || info.Detected {
				t.Fatalf("%s: error at %d: info %+v", code.Name(), pos, info)
			}
		}
	}
}

func TestHamming74MinimumDistance(t *testing.T) {
	// Exhaustive: every nonzero codeword of H(7,4) has weight >= 3
	// (d_min = 3 is what makes it single-error-correcting).
	code := MustHamming74()
	minW := code.N()
	for v := 1; v < 1<<4; v++ {
		data := bits.FromUint(uint64(v), 4)
		word, err := encode(code, data)
		if err != nil {
			t.Fatal(err)
		}
		if w := word.PopCount(); w < minW {
			minW = w
		}
	}
	if minW != 3 {
		t.Errorf("H(7,4) minimum distance = %d, want 3", minW)
	}
}

func TestHammingDoubleErrorNeverSilentlyCorrect(t *testing.T) {
	// A distance-3 code cannot repair two errors: the decoder must either
	// flag detection (possible for the shortened code) or miscorrect to a
	// *different* payload. It must never return the original data while
	// claiming a clean/corrected decode with the wrong correction count.
	rng := rand.New(rand.NewSource(3))
	for _, code := range []Code{MustHamming74(), MustHamming7164()} {
		for trial := 0; trial < 300; trial++ {
			data := randomData(rng, code.K())
			word, err := encode(code, data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bits.FlipExactly(word, rng, 2); err != nil {
				t.Fatal(err)
			}
			got, info, err := decode(code, word)
			if err != nil {
				t.Fatal(err)
			}
			if info.Detected {
				continue // detected uncorrectable: fine
			}
			if got.Equal(data) {
				t.Fatalf("%s: double error decoded back to the original payload", code.Name())
			}
		}
	}
}

func TestShortenedHammingValidation(t *testing.T) {
	if _, err := NewShortenedHamming(7, 120); err == nil {
		t.Error("shortening away all data bits should fail")
	}
	if _, err := NewShortenedHamming(7, -1); err == nil {
		t.Error("negative shortening should fail")
	}
	// Shortening by 0 equals the full code.
	a, err := NewShortenedHamming(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 7 || a.K() != 4 {
		t.Errorf("unshortened (m=3): (%d,%d)", a.N(), a.K())
	}
}

func TestShortenedHammingDetectsForeignSyndromes(t *testing.T) {
	// For H(71,64) some double-error syndromes correspond to columns that
	// were removed by shortening; those must surface as Detected at least
	// once across many trials.
	code := MustHamming7164()
	rng := rand.New(rand.NewSource(4))
	detected := 0
	for trial := 0; trial < 2000; trial++ {
		data := randomData(rng, code.K())
		word, _ := encode(code, data)
		if _, err := bits.FlipExactly(word, rng, 2); err != nil {
			t.Fatal(err)
		}
		_, info, err := decode(code, word)
		if err != nil {
			t.Fatal(err)
		}
		if info.Detected {
			detected++
		}
	}
	if detected == 0 {
		t.Error("shortened code never reported a detected-uncorrectable pattern over 2000 double errors")
	}
}

func approx(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 1 {
		return d <= tol
	}
	return d <= tol*m
}
